package exec

import (
	"testing"

	"dqs/internal/workload"
)

// BenchmarkFragmentCascade times the probe cascade at full scale: the
// temp-fed CF(p_A) of Figure 5 — A's materialized rows probing E's table
// and building the parent join's — driven through ProcessBatch at the
// default batch size, on the scratch the previous iteration reclaimed. The
// setup (the chains before p_A and MF(p_A)) runs with the timer stopped.
// ns/tuple divides by the CF's input rows.
func BenchmarkFragmentCascade(b *testing.B) {
	w, err := workload.Fig5(1)
	if err != nil {
		b.Fatal(err)
	}
	rows := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		rt, err := NewRuntime(testConfig(), w.Root, w.Dataset, nil)
		if err != nil {
			b.Fatal(err)
		}
		c := runChainsUpTo(b, rt, "A")
		mf := rt.NewSegment(c, 0, 0, nil, false)
		drainFrag(b, rt, mf)
		cf := rt.NewSegment(c, 0, len(c.Joins), mf.Temp, true)
		if len(cf.steps) == 0 || cf.Term != TermBuild {
			b.Fatalf("%s: %d steps, terminal %v; want a build-terminated cascade", cf.Label, len(cf.steps), cf.Term)
		}
		rows += mf.Temp.Len()
		b.StartTimer()
		drainFrag(b, rt, cf)
		b.StopTimer()
		rt.Med.Reclaim()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(rows), "ns/tuple")
}
