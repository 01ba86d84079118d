package experiment

import (
	"bytes"
	"testing"
)

// TestPlanCacheKeepsFigureBytes proves the shared decomposition cache is
// invisible to the simulation: the DelayClasses figure must be
// byte-identical with and without Options.PlanCache, and the cached sweep
// must actually have shared entries (misses bounded by distinct plans, not
// runs).
func TestPlanCacheKeepsFigureBytes(t *testing.T) {
	render := func(cache bool) ([]byte, *RunStats) {
		stats := &RunStats{}
		o := Options{Small: true, Seeds: []int64{1, 2, 3}, PlanCache: cache, Stats: stats}
		fig, err := DelayClasses(o)
		if err != nil {
			t.Fatalf("cache=%v: %v", cache, err)
		}
		var buf bytes.Buffer
		fig.Print(&buf)
		buf.WriteString(fig.CSV())
		return buf.Bytes(), stats
	}
	ref, refStats := render(false)
	cached, stats := render(true)
	if !bytes.Equal(ref, cached) {
		t.Errorf("figure bytes diverged with the plan cache on:\noff:\n%s\non:\n%s", ref, cached)
	}
	if h, m := refStats.PlanCacheCounts(); h != 0 || m != 0 {
		t.Errorf("uncached sweep reported plan-cache traffic: hits=%d misses=%d", h, m)
	}
	h, m := stats.PlanCacheCounts()
	if h+m == 0 {
		t.Fatal("cached sweep reported no plan-cache lookups")
	}
	// Per run the DPHJ network attaches the same plan the fragments use, and
	// the shared cache persists across tests of the process, so exact counts
	// are load-dependent — but with 3 seeds × 4 strategies × 3 scenarios the
	// sweep must hit far more often than it misses.
	if h <= m {
		t.Errorf("cached sweep should be hit-dominated, got hits=%d misses=%d", h, m)
	}
}
