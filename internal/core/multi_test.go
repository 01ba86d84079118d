package core

import (
	"testing"
	"time"

	"dqs/internal/exec"
	"dqs/internal/reftest"
	"dqs/internal/workload"
)

// multiSetup attaches n small Figure-5 queries (distinct data seeds) to one
// mediator and returns the mediator plus runtimes.
func multiSetup(t *testing.T, cfg exec.Config, n int, wait time.Duration) (*exec.Mediator, []*exec.Runtime, []*workload.Workload) {
	t.Helper()
	med, err := exec.NewMediator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var rts []*exec.Runtime
	var ws []*workload.Workload
	for i := 0; i < n; i++ {
		w, err := workload.Fig5Small(int64(i + 1))
		if err != nil {
			t.Fatal(err)
		}
		del := make(map[string]exec.Delivery)
		for _, name := range w.Catalog.Names() {
			del[name] = exec.Delivery{MeanWait: wait}
		}
		rt, err := med.AddQuery(string(rune('a'+i)), w.Root, w.Dataset, del)
		if err != nil {
			t.Fatal(err)
		}
		rts = append(rts, rt)
		ws = append(ws, w)
	}
	return med, rts, ws
}

func TestMultiQueryMatchesReference(t *testing.T) {
	cfg := testConfig()
	cfg.MemoryBytes = 128 << 20
	med, rts, ws := multiSetup(t, cfg, 3, 20*time.Microsecond)
	results, err := RunStrategy(med, rts, "DSE")
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("%d results", len(results))
	}
	for i, res := range results {
		want := reftest.Count(ws[i].Root, ws[i].Dataset)
		if res.OutputRows != want {
			t.Errorf("query %d produced %d rows, reference says %d", i, res.OutputRows, want)
		}
		if res.ResponseTime <= 0 {
			t.Errorf("query %d response %v", i, res.ResponseTime)
		}
	}
}

func TestMultiQueryConcurrencyBeatsSerialMakespan(t *testing.T) {
	cfg := testConfig()
	cfg.MemoryBytes = 128 << 20
	const wait = 50 * time.Microsecond

	med, rts, _ := multiSetup(t, cfg, 2, wait)
	results, err := RunStrategy(med, rts, "DSE")
	if err != nil {
		t.Fatal(err)
	}
	var makespan time.Duration
	for _, r := range results {
		if r.ResponseTime > makespan {
			makespan = r.ResponseTime
		}
	}
	// Serial execution: two fresh single-query mediators back to back.
	var serial time.Duration
	for i := 0; i < 2; i++ {
		w, err := workload.Fig5Small(int64(i + 1))
		if err != nil {
			t.Fatal(err)
		}
		del := make(map[string]exec.Delivery)
		for _, name := range w.Catalog.Names() {
			del[name] = exec.Delivery{MeanWait: wait}
		}
		rt, err := exec.NewRuntime(cfg, w.Root, w.Dataset, del)
		if err != nil {
			t.Fatal(err)
		}
		res, err := runOn(rt, "DSE")
		if err != nil {
			t.Fatal(err)
		}
		serial += res.ResponseTime
	}
	// Wrapper waits dominate this configuration, and concurrent queries
	// overlap them: the concurrent makespan must beat running the queries
	// one after the other.
	if makespan >= serial {
		t.Errorf("concurrent makespan %v not below serial total %v", makespan, serial)
	}
	t.Logf("concurrent makespan %v vs serial %v", makespan, serial)
}

func TestMultiQueryDeterminism(t *testing.T) {
	run := func() []exec.Result {
		cfg := testConfig()
		cfg.MemoryBytes = 128 << 20
		med, rts, _ := multiSetup(t, cfg, 2, 20*time.Microsecond)
		results, err := RunStrategy(med, rts, "DSE")
		if err != nil {
			t.Fatal(err)
		}
		return results
	}
	a, b := run(), run()
	for i := range a {
		if !a[i].Equal(b[i]) {
			t.Errorf("query %d results differ:\n%v\n%v", i, a[i], b[i])
		}
	}
}

func TestMultiEngineRejectsForeignRuntime(t *testing.T) {
	cfg := testConfig()
	medA, rtsA, _ := multiSetup(t, cfg, 1, 0)
	_, rtsB, _ := multiSetup(t, cfg, 1, 0)
	if _, err := NewStrategyEngine(medA, []*exec.Runtime{rtsA[0], rtsB[0]}, "DSE"); err == nil {
		t.Error("runtime from another mediator accepted")
	}
	if _, err := NewStrategyEngine(medA, nil, "DSE"); err == nil {
		t.Error("empty runtime list accepted")
	}
}

func TestMultiQuerySharedMemoryPressure(t *testing.T) {
	// Two queries whose combined footprint exceeds the grant: the engine
	// must stagger or repair, staying correct.
	cfg := testConfig()
	cfg.MemoryBytes = 1600 << 10
	med, rts, ws := multiSetup(t, cfg, 2, 10*time.Microsecond)
	results, err := RunStrategy(med, rts, "DSE")
	if err != nil {
		t.Fatalf("multi-query under memory pressure failed: %v", err)
	}
	for i, res := range results {
		want := reftest.Count(ws[i].Root, ws[i].Dataset)
		if res.OutputRows != want {
			t.Errorf("query %d produced %d rows, want %d", i, res.OutputRows, want)
		}
	}
	if got := med.Mem.Peak(); got > cfg.MemoryBytes {
		t.Errorf("peak memory %d exceeded the shared grant %d", got, cfg.MemoryBytes)
	}
}
