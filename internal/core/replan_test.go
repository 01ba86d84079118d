package core

import (
	"strings"
	"testing"
	"time"

	"dqs/internal/exec"
	"dqs/internal/sim"
)

// TestSplitBudgetExhaustion forces the memory-repair loop over its split
// budget and expects the traced, descriptive error the budget was added
// for — the failure mode used to be unbounded recursion.
func TestSplitBudgetExhaustion(t *testing.T) {
	w := smallFig5(t)
	del := uniform(w, 10*time.Microsecond)
	tr := &sim.Trace{}
	cfg := testConfig()
	cfg.MemoryBytes = 1 << 20 // tight enough that DSE must split for memory
	cfg.Trace = tr
	rt := newRT(t, w, cfg, del)
	eng, err := newEngine(rt.Med, []*exec.Runtime{rt}, func(st *State) (Policy, error) {
		pol, err := NewDSEPolicy(st)
		if err != nil {
			return nil, err
		}
		pol.(*dsePolicy).splitBudget = 0
		return pol, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = eng.Run()
	if err == nil {
		t.Fatal("zero split budget on a memory-starved run did not error")
	}
	if !strings.Contains(err.Error(), "split budget") {
		t.Errorf("err = %v, want the split-budget diagnostic", err)
	}
	if tr.Count(sim.EvMemRepair) == 0 {
		t.Error("budget exhaustion left no memory-repair trace entry")
	}
}

// TestSplitBudgetCoversLegitimateRepairs pins the budget's sizing claim:
// the memory-starved runs the suite already exercises stay strictly inside
// the default budget (every split consumes a chain step, so the step count
// bounds any converging repair sequence).
func TestSplitBudgetCoversLegitimateRepairs(t *testing.T) {
	w := smallFig5(t)
	del := uniform(w, 10*time.Microsecond)
	cfg := testConfig()
	cfg.MemoryBytes = 1 << 20
	res, err := runOn(newRT(t, w, cfg, del), "DSE")
	if err != nil {
		t.Fatalf("default budget rejected a legitimate repair sequence: %v", err)
	}
	if res.MemRepairs == 0 {
		t.Fatal("1MB grant triggered no memory repairs; the test lost its point")
	}
}
