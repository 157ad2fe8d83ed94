// Command perfbench is the repository benchmark: it runs one workload on
// the process-CPU clock, checks every output against a direct replay of
// the same stages, and prints each metric by name with its unit. The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end table below; with -trace 1
// they are the per-layer table. See README.md for the workloads, the
// layer-to-end-to-end mapping and how the traced run measures layers.
//
// Usage (from the repository root; run.py builds and runs this):
//
//	python3 perfbench/run.py --workload cell_pathfinder --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd is what a user of the system sees. Every workload reports every
// one of them; README.md says what each means on each workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"accesses_per_cpu_s", "1/s"},
	{"peak_heap_mb", "MB"},
	{"alloc_b_per_access", "B"},
	{"ok_frac", "frac"},
	{"ipc_speedup", "x"},
	{"pf_accuracy", "frac"},
	{"pf_coverage", "frac"},
	{"latency_ms", "ms"},
}

// gridTechniques is the Figure-4 online lineup without PATHFINDER, in the
// paper's order with NextLine added; the names are serve's registry keys.
var gridTechniques = []struct{ key, label string }{
	{"nopf", "NoPF"},
	{"nextline", "NextLine"},
	{"bo", "BO"},
	{"sisb", "SISB"},
	{"spp", "SPP"},
	{"pythia", "Pythia"},
}

// perLayer is the traced run's table. A workload that does no work in a
// layer reports 0 for that layer's metrics.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"workload.gen_ns_per_access", "ns"},
		{"trace.encode_ns_per_access", "ns"},
		{"trace.decode_ns_per_access", "ns"},
		{"trace.records_decoded_per_access", "count"},
		{"core.advise_ns_per_access", "ns"},
		{"core.queries_per_access", "count"},
		{"core.issued_per_access", "count"},
		{"snn.ticks_per_present", "count"},
		{"snn.fast_forward_frac", "frac"},
		{"snn.spikes_per_present", "count"},
		{"snn.wta_candidates_per_present", "count"},
		{"snn.stdp_updates_per_present", "count"},
	}
	for _, t := range gridTechniques {
		defs = append(defs, metricDef{"prefetch.advise_ns_per_access." + t.label, "ns"})
	}
	return append(defs, []metricDef{
		{"prefetch.budget_truncations", "count"},
		{"sim.baseline_ns_per_access", "ns"},
		{"sim.replay_ns_per_access", "ns"},
		{"sim.pref_late_frac", "frac"},
		{"sim.pref_dropped_frac", "frac"},
		{"sim.llc_miss_rate", "frac"},
		{"sim.dram.bank_conflicts_per_access", "count"},
		{"runner.remainder_frac", "frac"},
		{"runner.baseline_sims", "count"},
		{"runner.flight_hits", "count"},
		{"serve.client_send_ns_per_event", "ns"},
		{"serve.client_parse_ns_per_reply", "ns"},
		{"serve.overhead_ns_per_event", "ns"},
		{"serve.remainder_frac", "frac"},
		{"serve.server_latency_p50_ns", "ns"},
		{"serve.queue_depth_peak", "count"},
		{"serve.out_depth_peak", "count"},
		{"serve.shed", "count"},
		{"serve.generator_late_ms", "ms"},
		{"host.wall_over_cpu", "x"},
		{"host.tracing_overhead_frac", "frac"},
	}...)
}()

// options are one run's settings.
type options struct {
	seed    int64
	seconds float64
	traced  bool
	// tiny shrinks every workload to a smoke-test size (self-tests only).
	tiny bool
}

// outcome is what a workload hands back to main.
type outcome struct {
	attempted, failed int
	// metrics holds the end-to-end values (untraced run) or the per-layer
	// values (traced run); names missing here are reported as 0 only in
	// the per-layer table.
	metrics map[string]float64
	// wallOverCPU is the timed phase's wall time over its process CPU time.
	wallOverCPU float64
	// notes are extra human-readable lines (sample counts and the like).
	notes []string
	// layers is the traced run's account of the timed phase.
	layers ledger
}

// part is one layer's share of a traced timed phase.
type part struct {
	name    string
	seconds float64
}

// ledger splits a traced timed phase's process CPU time into the layers
// timed directly and a remainder: the part of the phase no direct stage
// accounts for (the runner, or the serve server and client machinery).
type ledger struct {
	what  string
	total float64
	parts []part
}

func (l ledger) remainder() float64 {
	r := l.total
	for _, p := range l.parts {
		r -= p.seconds
	}
	return r
}

func (l ledger) remainderFrac() float64 { return ratio(l.remainder(), l.total) }

func (l ledger) String() string {
	s := fmt.Sprintf("layers: %s %.4gs =", l.what, l.total)
	for _, p := range l.parts {
		s += fmt.Sprintf(" %s %.4gs +", p.name, p.seconds)
	}
	return s + fmt.Sprintf(" remainder %.4gs", l.remainder())
}

var workloads = map[string]func(options) (outcome, error){
	"cell_pathfinder": runCell,
	"grid_baselines":  runGrid,
	"serve_stream":    runServe,
}

// report is the JSON object on the last line of standard output.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "workload: cell_pathfinder, grid_baselines or serve_stream")
		seed    = fs.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
		seconds = fs.Float64("seconds", 10, "length of the timed phase in seconds")
		traced  = fs.Int("trace", 0, "1: report per-layer metrics from a traced run")
	)
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	code, err := run(os.Stdout, *name, options{seed: *seed, seconds: *seconds, traced: *traced == 1})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	os.Exit(code)
}

// run executes one workload and writes its report. It returns the process
// exit code: 0 when every output checked out, 1 on a failed check (the
// report is still printed), 2 when the workload could not run at all.
func run(w io.Writer, name string, o options) (int, error) {
	fn, ok := workloads[name]
	if !ok {
		return 2, fmt.Errorf("unknown workload %q", name)
	}
	if o.seed == 0 {
		return 2, fmt.Errorf("seed must be nonzero")
	}
	if o.seconds <= 0 {
		return 2, fmt.Errorf("seconds must be positive")
	}
	heap := startHeapSampler()
	out, err := fn(o)
	peak := heap.stop()
	if err != nil {
		return 2, fmt.Errorf("%s: %w", name, err)
	}
	if out.attempted < 1 {
		return 2, fmt.Errorf("%s: nothing attempted", name)
	}
	defs := endToEnd
	if o.traced {
		defs = perLayer
		out.metrics["host.wall_over_cpu"] = out.wallOverCPU
	} else {
		out.metrics["peak_heap_mb"] = peak / (1 << 20)
		out.metrics["ok_frac"] = float64(out.attempted-out.failed) / float64(out.attempted)
	}
	rep := report{
		Correct:   out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v, ok := out.metrics[d.name]
		if !ok && !o.traced {
			return 2, fmt.Errorf("%s: end-to-end metric %s was not measured", name, d.name)
		}
		rep.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}

	stamp := hostStamp()
	stamp["workload"] = name
	stamp["seed"] = o.seed
	stamp["traced"] = o.traced
	stamp["wall_over_cpu"] = out.wallOverCPU
	line, err := json.Marshal(stamp)
	if err != nil {
		return 2, err
	}
	fmt.Fprintf(w, "host %s\n", line)
	for _, n := range out.notes {
		fmt.Fprintln(w, n)
	}
	if o.traced {
		fmt.Fprintln(w, out.layers)
	}
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-40s %14.6g %s\n", n, rep.Metrics[n].Value, rep.Metrics[n].Unit)
	}
	line, err = json.Marshal(rep)
	if err != nil {
		return 2, err
	}
	fmt.Fprintf(w, "%s\n", line)
	if !rep.Correct {
		return 1, fmt.Errorf("%s: %d of %d outputs failed the check", name, out.failed, out.attempted)
	}
	return 0, nil
}
