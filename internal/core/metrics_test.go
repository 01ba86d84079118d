package core

import (
	"testing"
	"time"

	"dqs/internal/exec"
)

func TestFragmentPriorityUsesDiskPaceForTempInput(t *testing.T) {
	w := smallFig5(t)
	rt := newRT(t, w, testConfig(), uniform(w, 500*time.Microsecond))
	c, _ := rt.Dec.ChainOf("A")
	// Wrapper-fed fragment: waiting time comes from the CM estimate (or
	// the 20µs default before observations).
	pc := rt.NewPCFragment(c)
	pQueue := fragmentPriority(rt, pc)

	// Temp-fed fragment over the same chain: the pace is the local disk.
	mf := rt.NewSegment(c, 0, 0, nil, false)
	for !mf.Done() {
		if n, _ := mf.ProcessBatch(4096); n == 0 && !mf.Done() {
			if at, ok := mf.NextArrival(); ok {
				rt.Med.Clock.Stall(at)
			}
		}
	}
	cf := rt.NewSegment(c, 0, len(c.Joins), mf.Temp, true)
	pTemp := fragmentPriority(rt, cf)

	// After the MF drained the wrapper the CM knows A is slow (~500µs),
	// so the queue-paced PC's critical degree must dwarf the disk-paced
	// CF's (disk reads are ~6.7µs/tuple).
	if pQueue >= 0 && pTemp >= pQueue {
		t.Errorf("temp-input priority %v not below queue-input priority %v", pTemp, pQueue)
	}
	// The CF over a fast disk and a slow-ish CPU chain should barely be
	// critical at all.
	if pTemp > time.Second {
		t.Errorf("disk-paced fragment improbably critical: %v", pTemp)
	}
}

func TestLWBExactFormula(t *testing.T) {
	w := smallFig5(t)
	del := uniform(w, 100*time.Microsecond)
	rt := newRT(t, w, testConfig(), del)
	got := exec.LWB(rt)
	// Hand-compute max(Σ n_p·c_p, max_p retrieval_p).
	var cpu time.Duration
	var maxRetr time.Duration
	for _, c := range rt.Dec.Chains {
		term := exec.TermOutput
		if c.BuildsFor != nil {
			term = exec.TermBuild
		}
		cpu += time.Duration(c.Scan.Rel.Cardinality) * rt.PerTupleCost(c, 0, len(c.Joins), true, term)
		if r := rt.Source(c.Scan.Rel.Name).ExpectedRetrieval(); r > maxRetr {
			maxRetr = r
		}
	}
	want := cpu
	if maxRetr > want {
		want = maxRetr
	}
	if got != want {
		t.Errorf("LWB = %v, hand-computed %v", got, want)
	}
	// At 100µs/tuple the retrieval term dominates: C is the biggest
	// relation (18000 tuples → 1.8s).
	if got < 1700*time.Millisecond || got > 1900*time.Millisecond {
		t.Errorf("LWB = %v, want ≈1.8s (max retrieval)", got)
	}
}

func TestCriticalDegreeMatchesPaperFormula(t *testing.T) {
	w := smallFig5(t)
	rt := newRT(t, w, testConfig(), nil)
	c, _ := rt.Dec.ChainOf("D") // leaf build: cost is receive+move+move
	n := 1000
	wWait := 50 * time.Microsecond
	cp := rt.PerTupleCost(c, 0, 0, true, exec.TermBuild)
	want := time.Duration(n) * (wWait - cp)
	if got := criticalDegree(rt, c, n, wWait); got != want {
		t.Errorf("critical = %v, want n*(w-c) = %v", got, want)
	}
}
