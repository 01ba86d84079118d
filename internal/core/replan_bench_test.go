package core

import (
	"fmt"
	"testing"
	"time"

	"dqs/internal/exec"
	"dqs/internal/workload"
)

// BenchmarkReplanEvents measures one DQS planning point after a patchable
// event touched a single chain — the cost every EndOfQF/RateChange-class
// interruption pays. More concurrent queries mean more chains competing in
// one scheduling plan (the §6 multi-query setting, where planning overhead
// actually matters); the planning point reuses the per-chain planning cache
// and re-evaluates only the touched chain, so its per-event cost should grow
// with the candidate sort alone. `make benchsmoke` keeps it running; the
// repository benchmark's core.plan_us_* rows measure the same step.
func BenchmarkReplanEvents(b *testing.B) {
	for _, queries := range []int{1, 8} {
		b.Run(fmt.Sprintf("queries=%d/incremental", queries), func(b *testing.B) {
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
			// Warm the caches: the first planning point evaluates every
			// chain on both paths.
			if _, err := p.schedule(eng.st); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.states[i%len(p.states)].invalidate()
				if _, err := p.schedule(eng.st); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
