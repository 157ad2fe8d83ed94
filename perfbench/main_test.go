package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"

	"pathfinder/internal/runner"
)

// validName is the benchmark contract's rule for metric names.
var validName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !validName.MatchString(d.name) {
			t.Errorf("metric name %q does not match %s", d.name, validName)
		}
		if seen[d.name] {
			t.Errorf("metric name %q used twice", d.name)
		}
		seen[d.name] = true
		if !regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`).MatchString(d.unit) {
			t.Errorf("metric %s has unit %q", d.name, d.unit)
		}
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json at the repository
// root in step with the tables the benchmark prints from.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit string
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
	check := func(table string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the benchmark %d", table, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s/%s, the benchmark %s/%s", table, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

// runTiny runs one workload at smoke-test size and decodes its report.
func runTiny(t *testing.T, name string, seed int64, traced bool) report {
	t.Helper()
	var buf bytes.Buffer
	code, err := run(&buf, name, options{seed: seed, seconds: 0.2, traced: traced, tiny: true})
	if code != 0 || err != nil {
		t.Fatalf("%s seed %d traced=%v: exit %d: %v\n%s", name, seed, traced, code, err, buf.String())
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var rep report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		t.Fatalf("%s: last line is not the JSON report: %v", name, err)
	}
	if !strings.HasPrefix(lines[0], "host {") {
		t.Errorf("%s: first line is not the host stamp: %q", name, lines[0])
	}
	return rep
}

// TestTinyRunsEmitEveryMetric runs every workload, untraced and traced, on
// the development seed (1) and the held-out seed (7): each must pass its
// output check and report every metric of its table with the table's unit.
func TestTinyRunsEmitEveryMetric(t *testing.T) {
	for name := range workloads {
		for _, seed := range []int64{1, 7} {
			for _, traced := range []bool{false, true} {
				rep := runTiny(t, name, seed, traced)
				if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
					t.Errorf("%s seed %d traced=%v: correct=%v failed=%d attempted=%d", name, seed, traced, rep.Correct, rep.Failed, rep.Attempted)
				}
				defs := endToEnd
				if traced {
					defs = perLayer
				}
				if len(rep.Metrics) != len(defs) {
					t.Errorf("%s traced=%v: %d metrics, want %d", name, traced, len(rep.Metrics), len(defs))
				}
				for _, d := range defs {
					v, ok := rep.Metrics[d.name]
					switch {
					case !ok:
						t.Errorf("%s traced=%v: metric %s missing", name, traced, d.name)
					case v.Unit != d.unit:
						t.Errorf("%s: metric %s has unit %q, want %q", name, d.name, v.Unit, d.unit)
					case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
						t.Errorf("%s: metric %s = %v", name, d.name, v.Value)
					case !traced && v.Value <= 0:
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, d.name, v.Value)
					}
				}
			}
		}
	}
}

// TestLayersReconcile checks the traced run's ledger: the directly timed
// layers plus the remainder add up to the timed total, and the layers
// account for most of it.
func TestLayersReconcile(t *testing.T) {
	for name, fn := range workloads {
		out, err := fn(options{seed: 1, seconds: 0.2, traced: true, tiny: true})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		l := out.layers
		if l.total <= 0 || len(l.parts) == 0 {
			t.Fatalf("%s: empty ledger %+v", name, l)
		}
		sum := l.remainder()
		for _, p := range l.parts {
			if p.seconds < 0 {
				t.Errorf("%s: layer %s took %v s", name, p.name, p.seconds)
			}
			sum += p.seconds
		}
		if math.Abs(sum-l.total) > 1e-9*l.total {
			t.Errorf("%s: layers plus remainder = %v, timed total %v", name, sum, l.total)
		}
		if f := l.remainderFrac(); f < -0.5 || f > 0.75 {
			t.Errorf("%s: remainder is %.2f of the timed total; the layers do not account for it: %v", name, f, l)
		}
	}
}

// TestCheckDetectsMismatch makes sure the output checks compare what they
// claim to: any field of a cell's metrics, and any served prediction.
func TestCheckDetectsMismatch(t *testing.T) {
	want := runner.Result{
		Metrics:     runner.Metrics{Prefetcher: "P", Trace: "T", IPC: 1.5, Accuracy: 0.5, Coverage: 0.25, Issued: 10, Useful: 5, BaselineMisses: 20},
		BaselineIPC: 1.4, Cycles: 1000,
	}
	if !sameResult(want, want) {
		t.Fatal("a result differs from itself")
	}
	for _, mutate := range []func(*runner.Result){
		func(r *runner.Result) { r.IPC += 1e-12 },
		func(r *runner.Result) { r.Useful++ },
		func(r *runner.Result) { r.BaselineMisses-- },
		func(r *runner.Result) { r.Prefetcher = "Q" },
		func(r *runner.Result) { r.Cycles++ },
		func(r *runner.Result) { r.BaselineIPC = 0 },
	} {
		got := want
		mutate(&got)
		if sameResult(got, want) {
			t.Errorf("mismatch %+v not detected", got)
		}
	}

	ss := &sessionStream{next: 2, addrs: []uint64{64, 128, 0, 0}, n: []uint8{2, badReply}}
	if !servedEqual(ss, 0, []uint64{64 + 3, 128}) {
		t.Error("block-aligned prediction rejected")
	}
	for _, c := range []struct {
		i     int
		addrs []uint64
	}{
		{0, []uint64{64}},      // fewer predictions served
		{0, []uint64{64, 192}}, // a different address
		{1, nil},               // a reject in place of a prediction
		{2, []uint64{}},        // no reply at all
	} {
		if servedEqual(ss, c.i, c.addrs) {
			t.Errorf("event %d with %v: mismatch not detected", c.i, c.addrs)
		}
	}
}
