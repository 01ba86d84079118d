package experiment

import (
	"fmt"
	"testing"

	"dqs/internal/core"
	"dqs/internal/exec"
)

// TestGovernedEngineDeterministic puts the engine's resident temps — pages
// kept under the grant, spilled on demand — through the repeat check: a
// second run of the same cell (on scratch the first one pooled) must be
// virtual-nanosecond identical to the first. Runs at an ample grant and at
// the 2 MiB pressure point so both the resident fast path and the spill
// machinery are covered.
func TestGovernedEngineDeterministic(t *testing.T) {
	o := Options{Small: true}
	for _, grant := range []int64{0, 2 << 20} {
		cfg := exec.DefaultConfig()
		label := "ample"
		if grant != 0 {
			cfg.MemoryBytes = grant
			label = "pressure"
		}
		mk := o.ablationDeliveries(cfg)
		for _, strategy := range []string{"DSE", "SCR"} {
			for _, seed := range []int64{1, 2} {
				w, err := o.loadWorkload(seed)
				if err != nil {
					t.Fatal(err)
				}
				c := cfg
				c.Seed = seed
				name := fmt.Sprintf("governed/%s/%s seed %d", label, strategy, seed)
				first, err := runStrategy(w, c, mk(w), strategy)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				repeat, err := runStrategy(w, c, mk(w), strategy)
				if err != nil {
					t.Fatalf("%s (repeat): %v", name, err)
				}
				if !first.Equal(repeat) {
					t.Errorf("%s: repeat diverged from first:\nfirst:  %+v\nrepeat: %+v", name, first, repeat)
				}
			}
		}
	}
}

// TestWriteThroughWhenBuildsExceedGrant pins the one residency rule: a query
// whose estimated build bytes exceed the grant writes every temp page
// through, so a DSE run of the firsttuple cell at 1 MiB (which needs a §4.2
// split) never holds a resident page, while the same cell at 6.4 MB does.
func TestWriteThroughWhenBuildsExceedGrant(t *testing.T) {
	o := Options{Small: true}
	w, err := o.loadWorkload(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		mb       float64
		resident bool
	}{{1, false}, {6.4, true}} {
		cfg := exec.DefaultConfig()
		cfg.MemoryBytes = int64(tc.mb * (1 << 20))
		rt, err := exec.NewRuntime(cfg, w.Root, w.Dataset, o.ablationDeliveries(cfg)(w))
		if err != nil {
			t.Fatal(err)
		}
		var est int64
		for _, c := range rt.Dec.Chains {
			est += rt.EstBuildBytes(c)
		}
		if over := est > cfg.MemoryBytes; over == tc.resident {
			t.Fatalf("%v MB: estimated build bytes %d; the case lost its premise", tc.mb, est)
		}
		eng, err := core.NewStrategyEngine(rt.Med, []*exec.Runtime{rt}, "DSE")
		if err != nil {
			t.Fatal(err)
		}
		var peak int64
		for more := true; more; {
			if more, err = eng.Step(); err != nil {
				t.Fatalf("%v MB: %v", tc.mb, err)
			}
			peak = max(peak, rt.Med.Gov.ResidentBytes())
		}
		res := eng.Finalize()[0]
		rt.Med.Reclaim()
		if got := peak > 0; got != tc.resident {
			t.Errorf("%v MB: peak resident bytes %d, want resident pages %v", tc.mb, peak, tc.resident)
		}
		if !tc.resident && res.MemRepairs == 0 {
			t.Errorf("%v MB: no memory repair; the case lost its point", tc.mb)
		}
	}
}

// TestFirstTupleLatencyFigure smoke-tests the sweep itself: the figure has
// the full series set, the infeasible grants plot as -1, and wherever DSE
// completed its first-tuple series is populated.
func TestFirstTupleLatencyFigure(t *testing.T) {
	o := Options{Small: true, Seeds: []int64{1}}
	fig, err := FirstTupleLatency(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.X) != 7 {
		t.Fatalf("figure has %d grant points, want 7", len(fig.X))
	}
	for _, series := range []string{"DSE(s)", "DSE-first(s)", "SCR-first(s)", "repairs"} {
		vals := fig.Get(series)
		if len(vals) != len(fig.X) {
			t.Fatalf("series %q has %d values for %d points", series, len(vals), len(fig.X))
		}
	}
	resp, first := fig.Get("DSE(s)"), fig.Get("DSE-first(s)")
	feasible := 0
	for i := range fig.X {
		if resp[i] < 0 {
			continue // infeasible grant: plotted as -1 by design
		}
		feasible++
		if first[i] <= 0 || first[i] > resp[i] {
			t.Errorf("grant %.1fMB: first tuple at %v, response %v", fig.X[i], first[i], resp[i])
		}
	}
	if feasible == 0 {
		t.Error("every grant point infeasible; the sweep exercised nothing")
	}
}
