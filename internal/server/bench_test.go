package server

import (
	"fmt"
	"testing"
	"time"

	"dqs/internal/exec"
	"dqs/internal/workload"
)

// fusedBatch builds the repo benchmark's serve_fused shape: 16 Fig5Small
// queries, half of them on one shared instance (so they tap shared wrapper
// streams), arriving at offered CPU load 2.0 under MaxActive 4, every fourth
// one with a timeout of 1.5 times an unloaded run's response time. It
// attaches no decomposition cache (Exec.Plans), the configuration
// dqs.NewServer users start from.
func fusedBatch(tb testing.TB, seed int64) (Config, []Query) {
	tb.Helper()
	cfg := exec.DefaultConfig()
	cfg.Seed = seed
	cfg.SharedStreams = true
	deliveries := func(w *workload.Workload) map[string]exec.Delivery {
		d := make(map[string]exec.Delivery, w.Catalog.Len())
		for _, name := range w.Catalog.Names() {
			d[name] = exec.Delivery{MeanWait: 50 * time.Microsecond}
		}
		return d
	}
	shared, err := workload.Fig5Small(seed)
	if err != nil {
		tb.Fatal(err)
	}
	solo := cfg
	solo.SharedStreams = false
	ref := serialRun(tb, solo, Query{Label: "ref", Workload: shared, Deliveries: deliveries(shared)}, "DSE")
	queries := make([]Query, 16)
	var at time.Duration
	for i := range queries {
		w := shared
		if i%2 == 1 {
			if w, err = workload.Fig5Small(seed + 1 + int64(i/2)); err != nil {
				tb.Fatal(err)
			}
		}
		if i > 0 {
			at += ref.BusyTime / 2
		}
		queries[i] = Query{Label: fmt.Sprintf("q%02d", i), Workload: w, Deliveries: deliveries(w), ArriveAt: at}
		if i%4 == 3 {
			queries[i].Timeout = ref.ResponseTime * 3 / 2
		}
	}
	return Config{Exec: cfg, MaxActive: 4}, queries
}

// BenchmarkFusedBatch times one fused batch of the serve_fused shape on a
// warm pool and reports its allocation, the package-level view of the repo
// benchmark's serve_fused workload.
func BenchmarkFusedBatch(b *testing.B) {
	cfg, queries := fusedBatch(b, 1)
	runServer(b, cfg, queries) // warm the pool
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runServer(b, cfg, queries)
	}
}
