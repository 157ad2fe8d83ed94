package main

import (
	"context"
	"fmt"

	"pathfinder"
	"pathfinder/internal/core"
	"pathfinder/internal/prefetch"
	"pathfinder/internal/runner"
	"pathfinder/internal/serve"
	"pathfinder/internal/trace"
	"pathfinder/internal/workload"
)

func newPathfinder() (prefetch.Prefetcher, error) {
	return serve.NewPrefetcherByName("pathfinder", 0)
}

// runCell is the cell_pathfinder workload: one Figure-4 cell, default
// PATHFINDER on bfs-10, evaluated through runner.Eval on the slice path.
// bfs-10 is a trace on which PATHFINDER moves IPC, accuracy and coverage,
// and the cell is dominated by core and snn (Advise), so it is where a
// change to PATHFINDER itself shows.
func runCell(o options) (outcome, error) {
	const traceName = "bfs-10"
	loads := 50_000
	if o.tiny {
		loads = 3_000
	}
	accs, setup, err := timedSetup(func() ([]trace.Access, error) {
		return workload.Generate(traceName, loads, o.seed)
	})
	if err != nil {
		return outcome{}, err
	}

	var got []runner.Result
	var probe latencyProbe
	job := runner.Job{Trace: traceName, Accs: accs, New: probe.wrap(newPathfinder)}
	work := func() error {
		res, err := runner.New(runner.Config{Parallelism: 1}).Eval(context.Background(), job)
		got = append(got, res)
		probe.take()
		return err
	}
	// The direct replay of the same stages is the output check, and in a
	// traced run it is also where the layers are timed.
	var (
		p      prefetch.Prefetcher
		snap   *pathfinder.TelemetrySnapshot
		stages []stageTimes
		d      direct
	)
	replay := func() error {
		var err error
		if p, err = newPathfinder(); err != nil {
			return err
		}
		var stop func() *pathfinder.TelemetrySnapshot
		if o.traced {
			stop = telemetry()
		}
		d, err = directEval(traceName, accs, p, nil)
		if stop != nil {
			snap = stop()
		}
		stages = append(stages, d.st)
		return err
	}
	r, err := repeat(o, 3, work, replay)
	if err == nil && !o.traced {
		err = replay()
	}
	if err != nil {
		return outcome{}, err
	}
	out := outcome{attempted: len(got), metrics: map[string]float64{}, wallOverCPU: r.wallOverCPU()}
	for _, g := range got {
		if !sameResult(g, d.res) {
			out.failed++
		}
	}
	want, st := d.res, medianStages(stages)
	m := out.metrics
	n := float64(loads)
	if !o.traced {
		rates := make([]float64, len(r.cpu))
		for i, c := range r.cpu {
			rates[i] = n / c
		}
		m["setup_s"] = setup
		m["accesses_per_cpu_s"] = median(rates)
		m["alloc_b_per_access"] = median(r.allocs) / n
		var q qualityTotals
		q.add(want.IPC, want.BaselineIPC, want.Useful, want.Issued, want.BaselineMisses)
		q.into(m)
		m["latency_ms"] = median(append([]float64(nil), probe.mean...))
		out.notes = append(probe.notes("repetitions (Advise calls timed in-process, one in eight)"),
			fmt.Sprintf("timed_evals %d of %d accesses, CPU seconds %.4f", len(r.cpu), loads, r.cpu))
		return out, nil
	}
	stats := p.(*core.Pathfinder).Stats()
	m["workload.gen_ns_per_access"] = setup * 1e9 / n
	m["core.advise_ns_per_access"] = float64(st.advise) / n
	m["core.queries_per_access"] = float64(stats.Queries) / n
	m["core.issued_per_access"] = float64(stats.Issued) / n
	snnLayer(r.snap, m)
	m["prefetch.budget_truncations"] = counter(r.snap, "prefetch.budget_truncations")
	m["sim.baseline_ns_per_access"] = float64(st.baseline) / n
	m["sim.replay_ns_per_access"] = float64(st.replay) / n
	var t simTotals
	t.add(d.replay)
	t.into(m)
	m["sim.dram.bank_conflicts_per_access"] = ratio(counter(snap, "sim.dram.bank_conflicts"), counter(snap, "sim.demand_loads"))
	out.layers = ledger{what: "traced eval", total: median(append([]float64(nil), r.tracedCPU...)), parts: []part{
		{"sim.baseline", st.baseline.Seconds()},
		{"core.advise", st.advise.Seconds()},
		{"sim.replay", st.replay.Seconds()},
	}}
	m["runner.remainder_frac"] = out.layers.remainderFrac()
	m["runner.baseline_sims"] = counter(r.snap, "runner.baseline_sims")
	m["runner.flight_hits"] = counter(r.snap, "runner.flight_hits")
	m["host.tracing_overhead_frac"] = r.tracingOverhead()
	return out, nil
}
