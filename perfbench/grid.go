package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"runtime"
	"time"

	"pathfinder"
	"pathfinder/internal/prefetch"
	"pathfinder/internal/runner"
	"pathfinder/internal/serve"
	"pathfinder/internal/sim"
	"pathfinder/internal/trace"
	"pathfinder/internal/workload"
)

// gridTraces are three trace families with different winners (BO, SPP and
// SISB respectively), so the grid's quality metrics can move.
var gridTraces = []string{"cc-5", "450-soplex-s0", "623-xalan-s1"}

// gridInput is one trace of the grid: the generated accesses and their
// PFT3 encoding, which the cells stream from.
type gridInput struct {
	name string
	accs []trace.Access
	blob []byte
}

// gridSetup generates every grid trace and encodes it, returning the CPU
// seconds spent in each of the two steps.
func gridSetup(loads int, seed int64) ([]gridInput, [2]float64, error) {
	var cpu [2]float64
	in := make([]gridInput, len(gridTraces))
	for i, name := range gridTraces {
		sp := startSpan()
		accs, err := workload.Generate(name, loads, seed)
		gen, _ := sp.stop()
		if err != nil {
			return nil, cpu, err
		}
		sp = startSpan()
		var buf bytes.Buffer
		w := trace.NewWriter(&buf)
		for _, a := range accs {
			if err := w.Write(a); err != nil {
				return nil, cpu, err
			}
		}
		if err := w.Flush(); err != nil {
			return nil, cpu, err
		}
		enc, _ := sp.stop()
		cpu[0] += gen.Seconds()
		cpu[1] += enc.Seconds()
		in[i] = gridInput{name: name, accs: accs, blob: buf.Bytes()}
	}
	return in, cpu, nil
}

// gridJobs builds the 18 streaming cells: every technique on every trace,
// each decoding its trace's blob afresh per replay. SourceKey lets the
// runner share one baseline per trace; the explicit warmup is the 10%
// default, which an unbounded PFT3 stream cannot resolve by itself.
func gridJobs(in []gridInput, loads int, seed int64, probe *latencyProbe) []runner.Job {
	var jobs []runner.Job
	for _, g := range in {
		blob := g.blob
		for _, t := range gridTechniques {
			key := t.key
			jobs = append(jobs, runner.Job{
				Trace: g.name,
				Source: func(context.Context) (trace.Source, error) {
					return trace.NewReader(bytes.NewReader(blob))
				},
				SourceKey: fmt.Sprintf("%s/%d/%d", g.name, loads, seed),
				Warmup:    loads / 10,
				New: probe.wrap(func() (prefetch.Prefetcher, error) {
					return serve.NewPrefetcherByName(key, seed)
				}),
			})
		}
	}
	return jobs
}

// runGrid is the grid_baselines workload: the Figure-4 online lineup
// without PATHFINDER on three trace families, as streaming Source cells
// through one Runner at Parallelism = nproc. The SNN does no work here;
// prefetch Advise, the streamed sim replay and trace decoding do, so it is
// the workload a change to the baselines, sim, trace or runner shows on.
func runGrid(o options) (outcome, error) {
	loads := 100_000
	if o.tiny {
		loads = 2_000
	}
	var cpu [][2]float64
	in, setup, err := timedSetup(func() ([]gridInput, error) {
		in, c, err := gridSetup(loads, o.seed)
		cpu = append(cpu, c)
		return in, err
	})
	if err != nil {
		return outcome{}, err
	}
	var probe latencyProbe
	jobs := gridJobs(in, loads, o.seed, &probe)

	var got [][]runner.Result
	work := func() error {
		res, err := runner.New(runner.Config{Parallelism: runtime.NumCPU()}).Run(context.Background(), jobs)
		got = append(got, res)
		probe.take()
		return err
	}
	var (
		replays []gridReplay
		snap    *pathfinder.TelemetrySnapshot
	)
	replay := func() error {
		var stop func() *pathfinder.TelemetrySnapshot
		if o.traced {
			stop = telemetry()
		}
		g, err := replayGrid(in, o.seed)
		if stop != nil {
			snap = stop()
		}
		replays = append(replays, g)
		return err
	}
	r, err := repeat(o, 3, work, replay)
	if err == nil && !o.traced {
		err = replay()
	}
	if err != nil {
		return outcome{}, err
	}
	last := replays[len(replays)-1]
	want, totals, quality := last.want, last.totals, last.quality
	n := len(replays)
	sts := make([]stageTimes, n)
	for i, g := range replays {
		sts[i] = g.st
	}
	st := medianStages(sts)
	decode := medianOf(n, func(i int) time.Duration { return replays[i].decode })
	advise := make([]time.Duration, len(gridTechniques))
	for ti := range advise {
		advise[ti] = medianOf(n, func(i int) time.Duration { return replays[i].advise[ti] })
	}

	out := outcome{metrics: map[string]float64{}, wallOverCPU: r.wallOverCPU()}
	for _, rep := range got {
		for i, g := range rep {
			out.attempted++
			if !sameResult(g, want[i]) {
				out.failed++
			}
		}
	}
	m := out.metrics
	perRep := float64(len(jobs) * loads)
	perTrace := float64(len(in) * loads)
	if !o.traced {
		rates := make([]float64, len(r.cpu))
		for i, c := range r.cpu {
			rates[i] = perRep / c
		}
		m["setup_s"] = setup
		m["accesses_per_cpu_s"] = median(rates)
		m["alloc_b_per_access"] = median(r.allocs) / perRep
		quality.into(m)
		m["latency_ms"] = median(append([]float64(nil), probe.mean...))
		out.notes = append(probe.notes("repetitions (Advise calls timed in-process, one in eight)"),
			fmt.Sprintf("timed_grids %d of %d cells x %d accesses", len(r.cpu), len(jobs), loads))
		return out, nil
	}
	var gen, enc []float64
	for _, c := range cpu {
		gen, enc = append(gen, c[0]), append(enc, c[1])
	}
	m["workload.gen_ns_per_access"] = median(gen) * 1e9 / perTrace
	m["trace.encode_ns_per_access"] = median(enc) * 1e9 / perTrace
	decodeNs := float64(decode) / perTrace
	m["trace.decode_ns_per_access"] = decodeNs
	recordsDecoded := counter(r.snap, "trace.records_decoded")
	m["trace.records_decoded_per_access"] = recordsDecoded / perRep
	for ti, t := range gridTechniques {
		m["prefetch.advise_ns_per_access."+t.label] = float64(advise[ti]) / perTrace
	}
	m["prefetch.budget_truncations"] = counter(r.snap, "prefetch.budget_truncations")
	m["sim.baseline_ns_per_access"] = float64(st.baseline) / perTrace
	m["sim.replay_ns_per_access"] = float64(st.replay) / perRep
	totals.into(m)
	m["sim.dram.bank_conflicts_per_access"] = ratio(counter(snap, "sim.dram.bank_conflicts"), counter(snap, "sim.demand_loads"))
	// The runner's streamed cells decode each record about twice (the
	// baseline once per trace, then the Advise pass and the replay per
	// cell); the decode layer's share of a traced grid is that count times
	// the measured per-record decode cost.
	out.layers = ledger{what: "traced grid", total: median(append([]float64(nil), r.tracedCPU...)), parts: []part{
		{"trace.decode", recordsDecoded * decodeNs / 1e9},
		{"sim.baseline", st.baseline.Seconds()},
		{"prefetch.advise", st.advise.Seconds()},
		{"sim.replay", st.replay.Seconds()},
	}}
	m["runner.remainder_frac"] = out.layers.remainderFrac()
	m["runner.baseline_sims"] = counter(r.snap, "runner.baseline_sims")
	m["runner.flight_hits"] = counter(r.snap, "runner.flight_hits")
	m["host.tracing_overhead_frac"] = r.tracingOverhead()
	return out, nil
}

// decodeCheck streams a PFT3 blob through the reader, as the runner's
// cells do, and checks that it decodes to want record for record.
func decodeCheck(blob []byte, want []trace.Access) error {
	rd, err := trace.NewReader(bytes.NewReader(blob))
	if err != nil {
		return err
	}
	var a trace.Access
	for i := 0; ; i++ {
		err := rd.Next(&a)
		switch {
		case err == io.EOF && i == len(want):
			return nil
		case err == io.EOF:
			return fmt.Errorf("decoded %d of %d records", i, len(want))
		case err != nil:
			return err
		case i >= len(want) || a != want[i]:
			return fmt.Errorf("record %d decodes to %+v", i, a)
		}
	}
}

// gridReplay is one direct replay of the grid: decode each blob once and
// check it, then the baseline, the Advise pass and the replay per cell on
// the trace as a slice. It is the output check, and in a traced run the
// layer timings.
type gridReplay struct {
	want    []runner.Result
	decode  time.Duration
	st      stageTimes
	advise  []time.Duration // per technique, summed over traces
	totals  simTotals
	quality qualityTotals
}

func replayGrid(in []gridInput, seed int64) (gridReplay, error) {
	g := gridReplay{advise: make([]time.Duration, len(gridTechniques))}
	for _, tr := range in {
		sp := startSpan()
		err := decodeCheck(tr.blob, tr.accs)
		c, _ := sp.stop()
		if err != nil {
			return g, fmt.Errorf("%s: %w", tr.name, err)
		}
		g.decode += c
		accs := tr.accs
		var base *sim.Result
		for ti, t := range gridTechniques {
			p, err := serve.NewPrefetcherByName(t.key, seed)
			if err != nil {
				return g, err
			}
			d, err := directEval(tr.name, accs, p, base)
			if err != nil {
				return g, err
			}
			base = &d.base
			g.st.baseline += d.st.baseline
			g.st.advise += d.st.advise
			g.st.replay += d.st.replay
			g.advise[ti] += d.st.advise
			g.want = append(g.want, d.res)
			g.totals.add(d.replay)
			if t.key != "nopf" {
				g.quality.add(d.res.IPC, d.res.BaselineIPC, d.res.Useful, d.res.Issued, d.res.BaselineMisses)
			}
		}
	}
	return g, nil
}
