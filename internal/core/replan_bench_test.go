package core

import (
	"fmt"
	"testing"
	"time"

	"dqs/internal/exec"
	"dqs/internal/workload"
)

// BenchmarkPlanningPoint measures one DQS planning point — the cost every
// interruption pays before the next execution phase. More concurrent queries
// mean more chains competing in one scheduling plan (the §6 multi-query
// setting, where planning overhead actually matters); every chain is
// evaluated afresh, so the cost grows with the chain count. `make
// benchsmoke` keeps it running; the repository benchmark's core.plan_us_*
// rows measure the same step.
func BenchmarkPlanningPoint(b *testing.B) {
	for _, queries := range []int{1, 8} {
		b.Run(fmt.Sprintf("queries=%d", queries), func(b *testing.B) {
			cfg := testConfig()
			cfg.MemoryBytes = 1 << 30 // ample: no repair splits mid-benchmark
			med, err := exec.NewMediator(cfg)
			if err != nil {
				b.Fatal(err)
			}
			rts := make([]*exec.Runtime, 0, queries)
			for i := 0; i < queries; i++ {
				w, err := workload.Fig5Small(int64(i + 1))
				if err != nil {
					b.Fatal(err)
				}
				rt, err := med.AddQuery(fmt.Sprintf("q%d", i), w.Root, w.Dataset,
					uniform(w, 10*time.Microsecond))
				if err != nil {
					b.Fatal(err)
				}
				rts = append(rts, rt)
			}
			var p *dsePolicy
			eng, err := newEngine(med, rts, func(st *State) (Policy, error) {
				pol, err := NewDSEPolicy(st)
				if err == nil {
					p = pol.(*dsePolicy)
				}
				return pol, err
			})
			if err != nil {
				b.Fatal(err)
			}
			// The first planning point creates every chain's fragment;
			// later ones only re-derive verdicts.
			if _, err := p.schedule(eng.st); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := p.schedule(eng.st); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
