package core

import (
	"fmt"
	"testing"
	"time"

	"dqs/internal/exec"
)

// raceDetector is set when the tests run under the race detector.
var raceDetector bool

// TestPlanningPointAllocatesNothing pins a warm mid-run planning point of
// every built-in policy at zero allocations on Fig5Small: fragments exist,
// and Plan only re-derives verdicts into storage the policy owns. DPHJ's
// one planning point is admission, so its case re-plans right after it. The
// DSE case also runs under a 1 MiB grant, past the planning point that
// degrades p_B and splits it for memory, and degrades and splits a chain
// in place the way those planning points do. The fragment a new segment
// needs is created once, when it is first planned: it belongs to the query,
// not to the planning point.
func TestPlanningPointAllocatesNothing(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector's own allocations blur exact counts")
	}
	w := smallFig5(t)
	for _, tc := range []struct {
		name  string
		grant int64
		ready func(*Engine) bool // true once the engine is where Plan is measured
	}{
		{"SEQ", 0, afterRounds(3)},
		{"MA", 0, afterRounds(3)},
		{"SCR", 0, afterRounds(3)},
		{"DSE", 0, afterRounds(3)},
		{"DPHJ", 0, afterRounds(0)},
		{"DSE", 1 << 20, memorySplit},
	} {
		t.Run(fmt.Sprintf("%s/grant=%d", tc.name, tc.grant), func(t *testing.T) {
			cfg := testConfig()
			if tc.grant > 0 {
				cfg.MemoryBytes = tc.grant
			}
			rt := newRT(t, w, cfg, uniform(w, 20*time.Microsecond))
			e, err := NewStrategyEngine(rt.Med, []*exec.Runtime{rt}, tc.name)
			if err != nil {
				t.Fatal(err)
			}
			for !tc.ready(e) {
				if ok, err := e.Step(); err != nil || !ok {
					t.Fatalf("the run ended before the measured planning point (err %v)", err)
				}
			}
			plan := func() {
				if _, err := e.pol.Plan(e.st); err != nil {
					t.Fatal(err)
				}
			}
			if got := testing.AllocsPerRun(20, plan); got != 0 {
				t.Errorf("a warm mid-run %s planning point allocates %v times, want 0", tc.name, got)
			}
		})
	}

	// A degradation and a memory-repair split rewrite the chain's segments
	// in place.
	rt := newRT(t, w, testConfig(), nil)
	var cs *chainState
	for _, c := range dseEngine(t, rt).pol.(*dsePolicy).states {
		if len(c.chain.Joins) > 0 {
			cs = c
		}
	}
	whole := cs.segs[0]
	split := func() {
		cs.segs, cs.cur = append(cs.segs[:0], whole), 0
		cs.splitActive(whole.fromStep) // MF [0,0) + CF [0,len)
		cs.advance()
		cs.splitActive(whole.fromStep + 1) // the CF split below its first join
	}
	if got := testing.AllocsPerRun(20, split); got != 0 {
		t.Errorf("degrading and splitting %s allocates %v times, want 0", cs.chain.Name, got)
	}
}

// afterRounds is true once the engine has run n scheduling rounds.
func afterRounds(n int) func(*Engine) bool {
	return func(*Engine) bool { n--; return n < 0 }
}

// memorySplit is true once DSE has split a degraded chain for memory: some
// chain carries more segments than a degradation makes.
func memorySplit(e *Engine) bool {
	for _, cs := range e.pol.(*dsePolicy).states {
		if cs.degraded && len(cs.segs) > 2 {
			return true
		}
	}
	return false
}
