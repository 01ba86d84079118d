package experiment

import (
	"fmt"
	"testing"

	"dqs/internal/exec"
)

// TestGovernedEngineDeterministic puts the governed engine — temp pages
// resident under the grant, spilled on demand — through the repeat check:
// a second run of the same cell (on scratch the first one pooled) must be
// virtual-nanosecond identical to the first. Runs at an ample grant and at
// the 2 MiB pressure point so both the resident fast path and the spill
// machinery are covered.
func TestGovernedEngineDeterministic(t *testing.T) {
	o := Options{Small: true}
	for _, grant := range []int64{0, 2 << 20} {
		cfg := exec.DefaultConfig()
		cfg.Governor = true
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

// TestGovernedImprovesFirstTupleLatency pins the governor's payoff: on the
// memory grants where both engines complete, governed DSE delivers the
// first result tuple strictly earlier at the moderate-and-up grants, never
// needs more memory repairs than legacy, and reaches the same answer.
func TestGovernedImprovesFirstTupleLatency(t *testing.T) {
	o := Options{Small: true}
	base := exec.DefaultConfig()
	mk := o.ablationDeliveries(base)
	run := func(grant int64, governed bool) exec.Result {
		t.Helper()
		cfg := base
		cfg.MemoryBytes = grant
		cfg.Governor = governed
		w, err := o.loadWorkload(1)
		if err != nil {
			t.Fatal(err)
		}
		res, err := runStrategy(w, cfg, mk(w), "DSE")
		if err != nil {
			t.Fatalf("grant=%d governed=%v: %v", grant, governed, err)
		}
		return res
	}
	// Grants from the small firsttuple sweep where the resident fast path
	// has room to work (the quarter-of-grant residency cap).
	improved := 0
	for _, mb := range []float64{1.6, 3.2, 6.4} {
		grant := int64(mb * (1 << 20))
		legacy, gov := run(grant, false), run(grant, true)
		if gov.OutputRows != legacy.OutputRows {
			t.Errorf("grant=%.1fMB: governed produced %d rows, legacy %d", mb, gov.OutputRows, legacy.OutputRows)
		}
		if gov.MemRepairs > legacy.MemRepairs {
			t.Errorf("grant=%.1fMB: governed needed %d repairs, legacy %d", mb, gov.MemRepairs, legacy.MemRepairs)
		}
		if len(gov.DegradedFragments) > len(legacy.DegradedFragments) {
			t.Errorf("grant=%.1fMB: governed abandoned %d fragments, legacy %d",
				mb, len(gov.DegradedFragments), len(legacy.DegradedFragments))
		}
		if gov.FirstTupleTime > legacy.FirstTupleTime {
			t.Errorf("grant=%.1fMB: governed first tuple at %v, legacy at %v",
				mb, gov.FirstTupleTime, legacy.FirstTupleTime)
		} else if gov.FirstTupleTime < legacy.FirstTupleTime {
			improved++
		}
		if gov.FirstTupleTime == 0 || legacy.FirstTupleTime == 0 {
			t.Errorf("grant=%.1fMB: zero first-tuple time (gov=%v legacy=%v)", mb, gov.FirstTupleTime, legacy.FirstTupleTime)
		}
	}
	if improved == 0 {
		t.Error("governed DSE never delivered the first tuple strictly earlier than legacy")
	}
}

// TestFirstTupleLatencyFigure smoke-tests the sweep itself: the figure has
// the full series set, the infeasible grants plot as -1, and wherever both
// engines completed the governed first-tuple series is populated.
func TestFirstTupleLatencyFigure(t *testing.T) {
	o := Options{Small: true, Seeds: []int64{1}}
	fig, err := FirstTupleLatency(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.X) != 7 {
		t.Fatalf("figure has %d grant points, want 7", len(fig.X))
	}
	for _, series := range []string{"DSE(s)", "DSEgov(s)", "DSE-first(s)", "DSEgov-first(s)", "SCR-first(s)", "repairs", "gov-repairs"} {
		vals := fig.Get(series)
		if len(vals) != len(fig.X) {
			t.Fatalf("series %q has %d values for %d points", series, len(vals), len(fig.X))
		}
	}
	legacy, gov := fig.Get("DSE-first(s)"), fig.Get("DSEgov-first(s)")
	feasible := 0
	for i := range fig.X {
		if legacy[i] < 0 || gov[i] < 0 {
			continue // infeasible grant: plotted as -1 by design
		}
		feasible++
		if gov[i] == 0 || legacy[i] == 0 {
			t.Errorf("grant %.1fMB: zero first-tuple latency (legacy=%v gov=%v)", fig.X[i], legacy[i], gov[i])
		}
	}
	if feasible == 0 {
		t.Error("every grant point infeasible; the sweep exercised nothing")
	}
}
