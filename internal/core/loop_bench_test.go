package core

import (
	"testing"
	"time"

	"dqs/internal/exec"
	"dqs/internal/workload"
)

// BenchmarkDQPLoop times the DQP loop on the repository benchmark's
// sweep_small shape: one op runs SEQ, MA and DSE on Fig5Small, every wrapper
// at w_min = 20µs but one slowed 2.5x, each run on a mediator whose scratch
// the previous op reclaimed. The wrappers are slower than the mediator, so
// a batch holds a few tuples and the loop's fixed costs per arrival — the
// asks, the stall, the pop — weigh most. It reports host time per loop
// iteration and the asks that found no input per op; `make benchsmoke`
// keeps it running.
func BenchmarkDQPLoop(b *testing.B) {
	w, err := workload.Fig5Small(1)
	if err != nil {
		b.Fatal(err)
	}
	del := uniform(w, 20*time.Microsecond)
	del["C"] = exec.Delivery{MeanWait: 50 * time.Microsecond}
	cfg := testConfig()
	op := func() (work exec.Work) {
		for _, s := range []string{"SEQ", "MA", "DSE"} {
			med, err := exec.NewMediator(cfg)
			if err != nil {
				b.Fatal(err)
			}
			rt, err := med.AddQuery("", w.Root, w.Dataset, del)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := RunStrategy(med, []*exec.Runtime{rt}, s); err != nil {
				b.Fatal(err)
			}
			work.Iterations += med.Work.Iterations
			work.EmptyAsks += med.Work.EmptyAsks
			med.Reclaim()
		}
		return work
	}
	op() // warm the scratch pool
	b.ReportAllocs()
	b.ResetTimer()
	var iters, asks int64
	for i := 0; i < b.N; i++ {
		work := op()
		iters += work.Iterations
		asks += work.EmptyAsks
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(iters), "ns/iter")
	b.ReportMetric(float64(asks)/float64(b.N), "empty-asks/op")
}
