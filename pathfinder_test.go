package pathfinder

import (
	"context"
	"errors"
	"testing"
)

// TestEndToEndQuickstart exercises the README quickstart path: generate a
// trace, evaluate PATHFINDER, and check the metrics are sane.
func TestEndToEndQuickstart(t *testing.T) {
	accs, err := GenerateTrace("cc-5", 10_000, 1)
	if err != nil {
		t.Fatal(err)
	}
	pf, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	m, err := Evaluate(pf, accs, ScaledSimConfig())
	if err != nil {
		t.Fatal(err)
	}
	if m.IPC <= 0 || m.IPC > 4 {
		t.Errorf("IPC = %v", m.IPC)
	}
	if m.Accuracy < 0 || m.Accuracy > 1 || m.Coverage < 0 || m.Coverage > 1 {
		t.Errorf("accuracy %v / coverage %v out of range", m.Accuracy, m.Coverage)
	}
	if m.Issued == 0 {
		t.Error("PATHFINDER issued no prefetches")
	}
}

func TestEvaluateEmptyTrace(t *testing.T) {
	pf, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Evaluate(pf, nil, ScaledSimConfig()); err == nil {
		t.Error("Evaluate accepted an empty trace")
	}
}

// TestAllBaselinesRunEndToEnd runs every online baseline through one short
// trace, as an integration smoke test across prefetch + sim + workload.
func TestAllBaselinesRunEndToEnd(t *testing.T) {
	accs, err := GenerateTrace("623-xalan-s1", 8_000, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := ScaledSimConfig()
	cfg.Warmup = len(accs) / 10
	base, err := Simulate(cfg, accs, nil)
	if err != nil {
		t.Fatal(err)
	}
	pf, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	baselines := []OnlinePrefetcher{
		NewNoPrefetch(),
		NewNextLine(0),
		NewBestOffset(),
		NewSPP(),
		NewSISB(),
		NewPythia(1),
		pf,
		NewEnsemble("ens", NewNextLine(1), NewSISB()),
	}
	for _, p := range baselines {
		m, err := EvaluateAgainstBaseline(p, accs, cfg, base.LLCLoadMisses)
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		if m.IPC <= 0 {
			t.Errorf("%s: IPC %v", p.Name(), m.IPC)
		}
		if p.Name() == "NoPF" && m.Issued != 0 {
			t.Errorf("NoPF issued %d prefetches", m.Issued)
		}
	}
}

// TestOfflineBaselinesRunEndToEnd covers the Delta-LSTM and Voyager file
// generators on a short trace.
func TestOfflineBaselinesRunEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("offline baselines are slow")
	}
	accs, err := GenerateTrace("471-omnetpp-s1", 6_000, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := ScaledSimConfig()
	cfg.Warmup = len(accs) / 10
	base, err := Simulate(cfg, accs, nil)
	if err != nil {
		t.Fatal(err)
	}

	dcfg := DefaultDeltaLSTMConfig()
	dcfg.Epochs = 1
	dpfs, err := GenerateDeltaLSTM(dcfg, accs, Budget)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := EvaluateFile("DeltaLSTM", accs, dpfs, cfg, base.LLCLoadMisses); err != nil {
		t.Fatal(err)
	}

	vcfg := DefaultVoyagerConfig()
	vpfs, err := GenerateVoyager(vcfg, accs, Budget)
	if err != nil {
		t.Fatal(err)
	}
	m, err := EvaluateFile("Voyager", accs, vpfs, cfg, base.LLCLoadMisses)
	if err != nil {
		t.Fatal(err)
	}
	if m.Issued == 0 {
		t.Error("Voyager issued no prefetches")
	}
}

func TestHardwareCostHeadline(t *testing.T) {
	c, err := HardwareCost(DefaultHWConfig())
	if err != nil {
		t.Fatal(err)
	}
	if c.AreaMM2 < 0.2 || c.AreaMM2 > 0.26 {
		t.Errorf("area %v, paper headline 0.23", c.AreaMM2)
	}
	if c.PowerW < 0.4 || c.PowerW > 0.55 {
		t.Errorf("power %v, paper headline 0.5", c.PowerW)
	}
}

func TestWorkloadsListStable(t *testing.T) {
	names := Workloads()
	if len(names) != 11 {
		t.Fatalf("Workloads() = %d entries, want 11", len(names))
	}
	if names[0] != "cc-5" {
		t.Errorf("first workload %q", names[0])
	}
}

func TestGenerateTraceUnknown(t *testing.T) {
	if _, err := GenerateTrace("nope", 100, 1); err == nil {
		t.Error("accepted unknown benchmark")
	}
}

// TestPrefetchFileRoundTripThroughSim checks the GeneratePrefetches output
// is consumable by Simulate.
func TestPrefetchFileRoundTripThroughSim(t *testing.T) {
	accs, err := GenerateTrace("bfs-10", 5_000, 1)
	if err != nil {
		t.Fatal(err)
	}
	pfs := GeneratePrefetches(NewNextLine(0), accs, Budget)
	if len(pfs) != 2*len(accs) {
		t.Fatalf("next-line produced %d prefetches for %d accesses", len(pfs), len(accs))
	}
	cfg := ScaledSimConfig()
	res, err := Simulate(cfg, accs, pfs)
	if err != nil {
		t.Fatal(err)
	}
	if res.PrefIssued == 0 || res.PrefUseful == 0 {
		t.Errorf("sim consumed %d prefetches, %d useful", res.PrefIssued, res.PrefUseful)
	}
}

func TestSimulateMultiPublicAPI(t *testing.T) {
	a, err := GenerateTrace("cc-5", 5_000, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateTrace("bfs-10", 5_000, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range b {
		b[i].Addr += 1 << 42
	}
	res, err := SimulateMulti(ScaledSimConfig(), [][]Access{a, b}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 || res[0].IPC <= 0 || res[1].IPC <= 0 {
		t.Fatalf("results %+v", res)
	}
}

func TestThrottleAndISBPublicAPI(t *testing.T) {
	accs, err := GenerateTrace("623-xalan-s1", 6_000, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := ScaledSimConfig()
	cfg.Warmup = len(accs) / 10
	base, err := Simulate(cfg, accs, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []OnlinePrefetcher{
		NewThrottle(NewNextLine(0)),
		NewISB(),
		NewNextPage(),
		NewVLDP(),
		NewSMS(),
		NewStride(),
		NewDynamicEnsemble("dyn", NewNextLine(0), NewSISB()),
	} {
		m, err := EvaluateAgainstBaseline(p, accs, cfg, base.LLCLoadMisses)
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		if m.IPC <= 0 {
			t.Errorf("%s: IPC %v", p.Name(), m.IPC)
		}
	}
}

// TestSimulateRejectsBadConfig checks a malformed machine is an error the
// caller can match, not a panic, on every public simulation entry point.
func TestSimulateRejectsBadConfig(t *testing.T) {
	accs, err := GenerateTrace("cc-5", 1000, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := ScaledSimConfig()
	cfg.L2Ways = 0
	if _, err := Simulate(cfg, accs, nil); !errors.Is(err, ErrSimCacheWays) {
		t.Errorf("Simulate error = %v, want ErrSimCacheWays", err)
	}
	if _, err := SimulateStream(cfg, NewSliceTraceSource(accs), nil); !errors.Is(err, ErrSimCacheWays) {
		t.Errorf("SimulateStream error = %v, want ErrSimCacheWays", err)
	}
	if _, err := SimulateMulti(cfg, [][]Access{accs, accs}, nil); !errors.Is(err, ErrSimCacheWays) {
		t.Errorf("SimulateMulti error = %v, want ErrSimCacheWays", err)
	}
	_, err = Eval(context.Background(), EvalJob{Accs: accs, Sim: &cfg, Prefetcher: NewNextLine(0)})
	if !errors.Is(err, ErrSimCacheWays) {
		t.Errorf("Eval error = %v, want ErrSimCacheWays", err)
	}
}
