package main

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
	"time"

	"pathfinder"
	"pathfinder/internal/prefetch"
	"pathfinder/internal/runner"
	"pathfinder/internal/sim"
	"pathfinder/internal/trace"
)

// latHist is a log-linear latency histogram: 32 sub-buckets per power of
// two, so a quantile is within about 3% of the true value at any scale.
type latHist struct {
	counts [64 * 32]uint64
	n      uint64
	sum    float64 // nanoseconds
}

func (h *latHist) add(d time.Duration) {
	v := uint64(1)
	if d > 1 {
		v = uint64(d)
	}
	e := bits.Len64(v) - 1
	var sub uint64
	if e >= 5 {
		sub = (v >> (e - 5)) & 31
	} else {
		sub = (v << (5 - e)) & 31
	}
	h.counts[e*32+int(sub)]++
	h.n++
	h.sum += float64(v)
}

// quantile returns the q-quantile in milliseconds, interpolated linearly
// by rank within the bucket that holds it.
func (h *latHist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	target := q * float64(h.n)
	var seen float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= target {
			e, sub := i/32, float64(i%32)
			width := float64(uint64(1)<<e) / 32
			lo := float64(uint64(1)<<e) + sub*width
			return (lo + width*(target-seen)/float64(c)) / 1e6
		}
		seen += float64(c)
	}
	return 0
}

func (h *latHist) merge(o *latHist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
}

// mean returns the mean in milliseconds.
func (h *latHist) mean() float64 { return ratio(h.sum, float64(h.n)) / 1e6 }

// latSeries collects latency statistics per repetition (cell, grid) or per
// window (serve); each is reported as the median over them.
type latSeries struct {
	mean, p50, p90, p95, p99 []float64
	samples                  uint64
}

func (l *latSeries) add(h *latHist) {
	l.mean = append(l.mean, h.mean())
	l.p50 = append(l.p50, h.quantile(0.50))
	l.p90 = append(l.p90, h.quantile(0.90))
	l.p95 = append(l.p95, h.quantile(0.95))
	l.p99 = append(l.p99, h.quantile(0.99))
	l.samples += h.n
}

// notes returns the sample count and every statistic of the series; only
// the one the workload gates on becomes latency_ms.
func (l *latSeries) notes(how string) []string {
	med := func(xs []float64) float64 { return median(append([]float64(nil), xs...)) }
	return []string{
		fmt.Sprintf("latency_samples %d in %d %s", l.samples, len(l.p50), how),
		fmt.Sprintf("latency mean_ms %.6f p50_ms %.6f p90_ms %.6f p95_ms %.6f p99_ms %.6f (medians over the %s)", med(l.mean), med(l.p50), med(l.p90), med(l.p95), med(l.p99), how),
	}
}

// latencyProbe wraps the prefetchers of a timed phase so that a sample of
// their Advise calls is timed on the wall clock: the in-process prediction
// latency whose mean cell_pathfinder and grid_baselines report as
// latency_ms.
// Each wrapper has its own histogram, because the runner calls the
// prefetchers of different cells from different goroutines.
type latencyProbe struct {
	mu    sync.Mutex
	hists []*latHist
	latSeries
}

// wrap returns newP with its prefetchers wrapped.
func (lp *latencyProbe) wrap(newP func() (prefetch.Prefetcher, error)) func() (prefetch.Prefetcher, error) {
	return func() (prefetch.Prefetcher, error) {
		p, err := newP()
		if err != nil {
			return nil, err
		}
		h := &latHist{}
		lp.mu.Lock()
		lp.hists = append(lp.hists, h)
		lp.mu.Unlock()
		return &sampledAdvise{p: p, hist: h, rng: 0x9E3779B97F4A7C15}, nil
	}
}

// take adds the wrappers made since the last take as one repetition of
// the series, and forgets them.
func (lp *latencyProbe) take() {
	lp.mu.Lock()
	defer lp.mu.Unlock()
	var sum latHist
	for _, h := range lp.hists {
		sum.merge(h)
	}
	lp.hists = lp.hists[:0]
	lp.add(&sum)
}

// sampledAdvise times one Advise call in eight, chosen by a xorshift
// generator so the sample cannot alias with a periodic access pattern. The
// clock reads cost more than a NextLine Advise; sampling keeps them from
// weighing on the timed phase. It never changes the advice.
type sampledAdvise struct {
	p    prefetch.Prefetcher
	hist *latHist
	rng  uint64
}

func (s *sampledAdvise) Name() string { return s.p.Name() }

func (s *sampledAdvise) Advise(a trace.Access, budget int) []uint64 {
	s.rng ^= s.rng << 13
	s.rng ^= s.rng >> 7
	s.rng ^= s.rng << 17
	if s.rng&7 != 0 {
		return s.p.Advise(a, budget)
	}
	t0 := time.Now()
	out := s.p.Advise(a, budget)
	s.hist.add(time.Since(t0))
	return out
}

// stageTimes is the process CPU time of each stage of one direct
// evaluation: the no-prefetch baseline simulation, the Advise pass that
// builds the prefetch file, and the timed replay.
type stageTimes struct {
	baseline, advise, replay time.Duration
}

// medianStages is the stage-by-stage median of several direct replays.
func medianStages(sts []stageTimes) stageTimes {
	n := len(sts)
	return stageTimes{
		baseline: medianOf(n, func(i int) time.Duration { return sts[i].baseline }),
		advise:   medianOf(n, func(i int) time.Duration { return sts[i].advise }),
		replay:   medianOf(n, func(i int) time.Duration { return sts[i].replay }),
	}
}

// direct is the product of one direct evaluation.
type direct struct {
	res          runner.Result
	base, replay sim.Result
	st           stageTimes
}

func directEval(traceName string, accs []trace.Access, p prefetch.Prefetcher, base *sim.Result) (direct, error) {
	var st stageTimes
	cfg := sim.ScaledConfig()
	cfg.Warmup = len(accs) / 10
	eng, release := sim.AcquireEngine(cfg)
	defer release()
	if base == nil {
		sp := startSpan()
		b, err := eng.Run(accs, nil)
		if err != nil {
			return direct{}, fmt.Errorf("baseline simulation of %s: %w", traceName, err)
		}
		st.baseline, _ = sp.stop()
		base = &b
	}
	sp := startSpan()
	pfs := prefetch.GenerateFile(p, accs, prefetch.Budget)
	st.advise, _ = sp.stop()
	sp = startSpan()
	res, err := eng.Run(accs, pfs)
	if err != nil {
		return direct{}, fmt.Errorf("replay of %s/%s: %w", traceName, p.Name(), err)
	}
	st.replay, _ = sp.stop()
	out := runner.Result{
		Metrics: runner.Metrics{
			Prefetcher:     p.Name(),
			Trace:          traceName,
			IPC:            res.IPC,
			Accuracy:       res.Accuracy(),
			Coverage:       res.Coverage(base.LLCLoadMisses),
			Issued:         res.PrefIssued,
			Useful:         res.PrefUseful,
			BaselineMisses: base.LLCLoadMisses,
		},
		BaselineIPC: base.IPC,
		Cycles:      res.Cycles,
	}
	return direct{res: out, base: *base, replay: res, st: st}, nil
}

// sameResult reports whether the runner's result matches the direct
// evaluation field for field (Wall is host time and is not compared).
func sameResult(got, want runner.Result) bool {
	return got.Metrics == want.Metrics && got.BaselineIPC == want.BaselineIPC && got.Cycles == want.Cycles
}

// simTotals sums the simulator's result counters over replays.
type simTotals struct {
	late, useful, dropped, issued, llcMisses, llcAccesses uint64
}

func (t *simTotals) add(r sim.Result) {
	t.late += r.PrefLate
	t.useful += r.PrefUseful
	t.dropped += r.PrefDropped
	t.issued += r.PrefIssued
	t.llcMisses += r.LLCLoadMisses
	t.llcAccesses += r.LLCLoadAccesses
}

func (t simTotals) into(m map[string]float64) {
	m["sim.pref_late_frac"] = ratio(float64(t.late), float64(t.useful))
	m["sim.pref_dropped_frac"] = ratio(float64(t.dropped), float64(t.issued))
	m["sim.llc_miss_rate"] = ratio(float64(t.llcMisses), float64(t.llcAccesses))
}

// counter reads a counter from a telemetry snapshot (0 when absent).
func counter(s *pathfinder.TelemetrySnapshot, name string) float64 {
	if s == nil {
		return 0
	}
	return float64(s.Counters[name])
}

// gauge reads a gauge from a telemetry snapshot (0 when absent).
func gauge(s *pathfinder.TelemetrySnapshot, name string) float64 {
	if s == nil {
		return 0
	}
	return float64(s.Gauges[name])
}

// snnLayer derives the per-presentation SNN metrics from the counters of
// a traced phase.
func snnLayer(s *pathfinder.TelemetrySnapshot, m map[string]float64) {
	presents := counter(s, "snn.presents") + counter(s, "snn.presents_one_tick")
	ticks, ffTicks := counter(s, "snn.ticks"), counter(s, "snn.fast_forward_ticks")
	m["snn.ticks_per_present"] = ratio(ticks, presents)
	m["snn.fast_forward_frac"] = ratio(ffTicks, ticks+ffTicks)
	m["snn.spikes_per_present"] = ratio(counter(s, "snn.spikes"), presents)
	m["snn.wta_candidates_per_present"] = ratio(counter(s, "snn.wta_candidates"), presents)
	m["snn.stdp_updates_per_present"] = ratio(counter(s, "snn.stdp_depressions")+counter(s, "snn.stdp_potentiations"), presents)
}

// qualityTotals aggregates prefetch quality over evaluated cells:
// geometric-mean IPC speedup, summed useful over summed issued, and summed
// useful over summed baseline misses.
type qualityTotals struct {
	logSpeedup              float64
	cells                   int
	useful, issued, baseMis uint64
}

func (q *qualityTotals) add(ipc, baseIPC float64, useful, issued, baseMisses uint64) {
	q.logSpeedup += math.Log(ipc / baseIPC)
	q.cells++
	q.useful += useful
	q.issued += issued
	q.baseMis += baseMisses
}

func (q qualityTotals) into(m map[string]float64) {
	m["ipc_speedup"] = math.Exp(q.logSpeedup / float64(q.cells))
	m["pf_accuracy"] = ratio(float64(q.useful), float64(q.issued))
	m["pf_coverage"] = ratio(float64(q.useful), float64(q.baseMis))
}
