package core

import (
	"strings"
	"testing"
	"time"

	"dqs/internal/exec"
	"dqs/internal/sim"
)

// dsePlan wraps fragments in the execution mode the DSE policy uses: an
// adaptive phase on the DQP timeout.
func dsePlan(frags ...*exec.Fragment) SchedulingPlan {
	return SchedulingPlan{Frags: frags, Timeout: dqpTimeout}
}

// TestProcessPhaseFallsThroughPriorities drives one DQP execution phase
// directly: the scheduling plan puts a starved chain first and a flowing
// chain second; the DQP must do the second chain's work during the first
// one's gaps (§3.2) instead of stalling.
func TestProcessPhaseFallsThroughPriorities(t *testing.T) {
	w := smallFig5(t)
	del := uniform(w, 10*time.Microsecond)
	del["E"] = exec.Delivery{MeanWait: 10 * time.Microsecond, InitialDelay: 300 * time.Millisecond}
	cfg := testConfig()
	rt := newRT(t, w, cfg, del)
	e := dseEngine(t, rt)

	cE, _ := rt.Dec.ChainOf("E")
	cD, _ := rt.Dec.ChainOf("D")
	fE := rt.NewPCFragment(cE) // starved for 300ms
	fD := rt.NewPCFragment(cD) // flowing immediately
	ev, err := e.processPhase(dsePlan(fE, fD))
	if err != nil {
		t.Fatal(err)
	}
	if ev.Kind != EventEndOfQF {
		t.Fatalf("event = %v, want EndOfQF", ev.Kind)
	}
	// The first completion must be p_D: it finishes (~0.2s of data) while
	// p_E has not even started delivering.
	if ev.Frag != fD {
		t.Fatalf("first finished fragment = %s, want p_D", ev.Frag.Label)
	}
	if fD.Processed() == 0 || fE.Processed() != 0 {
		t.Errorf("processed: D=%d E=%d; want D>0, E=0", fD.Processed(), fE.Processed())
	}
	// Finish the phase: p_E completes next.
	ev, err = e.processPhase(dsePlan(fE, fD))
	if err != nil {
		t.Fatal(err)
	}
	if ev.Kind != EventEndOfQF || ev.Frag != fE {
		t.Fatalf("second event = %v/%v, want EndOfQF(p_E)", ev.Kind, ev.Frag)
	}
}

// TestProcessPhaseStallsWhenAllStarved verifies the DQP stalls (accounting
// idle time) when every scheduled fragment is starved, and that it wakes at
// the earliest arrival.
func TestProcessPhaseStallsWhenAllStarved(t *testing.T) {
	w := smallFig5(t)
	del := uniform(w, 10*time.Microsecond)
	del["E"] = exec.Delivery{MeanWait: 10 * time.Microsecond, InitialDelay: 100 * time.Millisecond}
	del["D"] = exec.Delivery{MeanWait: 10 * time.Microsecond, InitialDelay: 150 * time.Millisecond}
	cfg := testConfig()
	rt := newRT(t, w, cfg, del)
	e := dseEngine(t, rt)
	cE, _ := rt.Dec.ChainOf("E")
	cD, _ := rt.Dec.ChainOf("D")
	ev, err := e.processPhase(dsePlan(rt.NewPCFragment(cE), rt.NewPCFragment(cD)))
	if err != nil {
		t.Fatal(err)
	}
	if ev.Kind != EventEndOfQF {
		t.Fatalf("event = %v", ev.Kind)
	}
	if rt.Med.Clock.Idle() < 99*time.Millisecond {
		t.Errorf("idle time %v, want ≈100ms of stalling before the first arrival", rt.Med.Clock.Idle())
	}
}

// TestProcessPhaseTimeout verifies the TimeOut interruption when the
// starvation exceeds the plan's timeout.
func TestProcessPhaseTimeout(t *testing.T) {
	w := smallFig5(t)
	del := uniform(w, 10*time.Microsecond)
	del["E"] = exec.Delivery{MeanWait: 10 * time.Microsecond, InitialDelay: time.Second}
	rt := newRT(t, w, testConfig(), del)
	e := dseEngine(t, rt)
	cE, _ := rt.Dec.ChainOf("E")
	sp := dsePlan(rt.NewPCFragment(cE))
	sp.Timeout = 50 * time.Millisecond
	ev, err := e.processPhase(sp)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Kind != EventTimeout {
		t.Fatalf("event = %v, want TimeOut", ev.Kind)
	}
}

// TestScheduleOrdersByCriticalDegree checks the DQS priority order: with
// one wrapper much slower than another (and the CM already aware), the
// slower chain gets higher priority.
func TestScheduleOrdersByCriticalDegree(t *testing.T) {
	w := smallFig5(t)
	cfg := testConfig()
	cfg.BMT = 1e9 // keep plain PCs
	del := uniform(w, 20*time.Microsecond)
	del["E"] = exec.Delivery{MeanWait: 5 * time.Millisecond}
	rt := newRT(t, w, cfg, del)
	e := dseEngine(t, rt)
	// Let the CM observe both wrappers for a while.
	rt.Med.Clock.Stall(200 * time.Millisecond)
	rt.Med.CM.Observe(rt.Now())
	sp, err := e.pol.(*dsePolicy).schedule(e.st)
	if err != nil {
		t.Fatal(err)
	}
	if len(sp) < 2 {
		t.Fatalf("SP has %d fragments", len(sp))
	}
	if sp[0].Chain.Scan.Rel.Name != "E" {
		labels := make([]string, len(sp))
		for i, f := range sp {
			labels[i] = f.Label
		}
		t.Errorf("slowest wrapper not first in SP: %v", labels)
	}
}

// TestScheduleCreatesMFForBlockedCriticalChain checks the §4.4 degradation
// rule end to end at the scheduler level.
func TestScheduleCreatesMFForBlockedCriticalChain(t *testing.T) {
	w := smallFig5(t)
	rt := newRT(t, w, testConfig(), uniform(w, 20*time.Microsecond))
	e := dseEngine(t, rt)
	sp, err := e.pol.(*dsePolicy).schedule(e.st)
	if err != nil {
		t.Fatal(err)
	}
	hasMF := false
	for _, f := range sp {
		if f.Term == exec.TermTemp {
			hasMF = true
		}
	}
	// At w_min = 20µs, bmi ≈ 1.5 > bmt = 1: the blocked chains (p_A, p_B,
	// p_F, p_C) must be degraded at the very first planning phase.
	if !hasMF {
		t.Error("no materialization fragments in the initial SP")
	}
	if got := len(sp); got < 5 {
		t.Errorf("initial SP has %d fragments, want >= 5 (2 builds + several MFs)", got)
	}
}

// TestScheduleSkipsDegradationBelowBMT checks the negative direction.
func TestScheduleSkipsDegradationBelowBMT(t *testing.T) {
	w := smallFig5(t)
	cfg := testConfig()
	cfg.BMT = 10
	rt := newRT(t, w, cfg, uniform(w, 20*time.Microsecond))
	e := dseEngine(t, rt)
	sp, err := e.pol.(*dsePolicy).schedule(e.st)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range sp {
		if f.Term == exec.TermTemp {
			t.Errorf("fragment %s degraded despite bmi << bmt", f.Label)
		}
	}
	// Only the two leaf build chains are schedulable.
	if len(sp) != 2 {
		labels := make([]string, len(sp))
		for i, f := range sp {
			labels[i] = f.Label
		}
		t.Errorf("SP = %v, want the two leaf chains", labels)
	}
}

// sweep is a round-robin plan over fragments.
func sweep(frags ...*exec.Fragment) SchedulingPlan {
	return SchedulingPlan{Frags: frags, RoundRobin: true}
}

// TestSweepCompletionDoesNotEndPhase: in round-robin mode the fragment that
// finishes first does not interrupt the phase; it ends with SPDone once
// every fragment has finished.
func TestSweepCompletionDoesNotEndPhase(t *testing.T) {
	w := smallFig5(t)
	del := uniform(w, 10*time.Microsecond)
	del["E"] = exec.Delivery{MeanWait: 10 * time.Microsecond, InitialDelay: 300 * time.Millisecond}
	rt := newRT(t, w, testConfig(), del)
	e := dseEngine(t, rt)
	cE, _ := rt.Dec.ChainOf("E")
	cD, _ := rt.Dec.ChainOf("D")
	fE, fD := rt.NewPCFragment(cE), rt.NewPCFragment(cD)
	ev, err := e.processPhase(sweep(fD, fE))
	if err != nil {
		t.Fatal(err)
	}
	if ev.Kind != EventSPDone || !fD.Done() || !fE.Done() {
		t.Fatalf("event %v, D done=%v, E done=%v; want SPDone with both done", ev.Kind, fD.Done(), fE.Done())
	}
}

// TestSweepOverflowEndsPhase: a build that exhausts the grant ends the sweep
// with an Overflow naming it.
func TestSweepOverflowEndsPhase(t *testing.T) {
	w := smallFig5(t)
	cfg := testConfig()
	cfg.MemoryBytes = 64 << 10
	rt := newRT(t, w, cfg, uniform(w, 10*time.Microsecond))
	e := dseEngine(t, rt)
	cE, _ := rt.Dec.ChainOf("E")
	cD, _ := rt.Dec.ChainOf("D")
	fE, fD := rt.NewPCFragment(cE), rt.NewPCFragment(cD)
	ev, err := e.processPhase(sweep(fD, fE))
	if err != nil {
		t.Fatal(err)
	}
	if ev.Kind != EventOverflow || (ev.Frag != fD && ev.Frag != fE) {
		t.Fatalf("event %v (frag %v), want Overflow of p_D or p_E", ev.Kind, ev.Frag)
	}
}

// TestSweepStallsToEarliestArrival: when a whole sweep finds nothing to do,
// the phase stalls to the earliest arrival among its fragments, not to a
// later one.
func TestSweepStallsToEarliestArrival(t *testing.T) {
	w := smallFig5(t)
	del := uniform(w, 10*time.Microsecond)
	del["E"] = exec.Delivery{MeanWait: 10 * time.Microsecond, InitialDelay: 100 * time.Millisecond}
	del["D"] = exec.Delivery{MeanWait: 10 * time.Microsecond, InitialDelay: 150 * time.Millisecond}
	cfg := testConfig()
	tr := &sim.Trace{}
	cfg.Trace = tr
	rt := newRT(t, w, cfg, del)
	e := dseEngine(t, rt)
	cE, _ := rt.Dec.ChainOf("E")
	cD, _ := rt.Dec.ChainOf("D")
	fE, fD := rt.NewPCFragment(cE), rt.NewPCFragment(cD)
	first, ok := fE.NextArrival()
	if !ok || first < 100*time.Millisecond {
		t.Fatalf("p_E's first arrival %v (%v), want after its 100ms delay", first, ok)
	}
	if _, err := e.processPhase(sweep(fD, fE)); err != nil {
		t.Fatal(err)
	}
	var at time.Duration = -1
	for _, ev := range tr.Events {
		if ev.Kind == sim.EvBatch && ev.Note == "p_E first batch" {
			at = ev.At
		}
	}
	if at != first {
		t.Errorf("p_E's first batch at %v, want its first arrival %v", at, first)
	}
}

// silentInput is a wrapper that will never deliver again but has not
// finished either.
type silentInput struct{ exec.TupleSource }

func (silentInput) Available(time.Duration) int        { return 0 }
func (silentInput) NextArrival() (time.Duration, bool) { return 0, false }
func (silentInput) Exhausted() bool                    { return false }

// TestSweepEndsWhenNothingWillArrive: a sweep whose unfinished fragments will
// never see input again ends with SPDone instead of waiting.
func TestSweepEndsWhenNothingWillArrive(t *testing.T) {
	w := smallFig5(t)
	rt := newRT(t, w, testConfig(), uniform(w, 10*time.Microsecond))
	e := dseEngine(t, rt)
	cE, _ := rt.Dec.ChainOf("E")
	cD, _ := rt.Dec.ChainOf("D")
	fE, fD := rt.NewPCFragment(cE), rt.NewPCFragment(cD)
	fE.In = silentInput{fE.In}
	ev, err := e.processPhase(sweep(fD, fE))
	if err != nil {
		t.Fatal(err)
	}
	if ev.Kind != EventSPDone || !fD.Done() || fE.Done() {
		t.Fatalf("event %v, D done=%v, E done=%v; want SPDone with only D done", ev.Kind, fD.Done(), fE.Done())
	}
}

// dueInput is a wrapper that reports an arrival already due but never makes
// a tuple available: a broken input the phase can neither process nor
// stall on.
type dueInput struct{ exec.TupleSource }

func (dueInput) Available(time.Duration) int        { return 0 }
func (dueInput) NextArrival() (time.Duration, bool) { return 0, true }
func (dueInput) Exhausted() bool                    { return false }

// dueSeq is SEQ with every planned fragment reading through dueInput.
type dueSeq struct{ Policy }

func (p dueSeq) Plan(st *State) (SchedulingPlan, error) {
	sp, err := p.Policy.Plan(st)
	for _, f := range sp.Frags {
		f.In = dueInput{f.In}
	}
	return sp, err
}

// TestDQPSpinIsAnError: a phase that loops without advancing the clock ends
// with an error naming the policy, the plan and the fragments — not a panic.
func TestDQPSpinIsAnError(t *testing.T) {
	w := smallFig5(t)
	rt := newRT(t, w, testConfig(), uniform(w, 20*time.Millisecond))
	e, err := newEngine(rt.Med, []*exec.Runtime{rt}, func(st *State) (Policy, error) {
		inner, err := newSeqPolicy(st)
		return dueSeq{inner}, err
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = e.Run()
	if err == nil || !strings.Contains(err.Error(), "DQP spin") ||
		!strings.Contains(err.Error(), "policy SEQ, plan [") || !strings.Contains(err.Error(), "runnable=false") {
		t.Fatalf("err = %v, want a DQP spin error naming policy, plan and fragments", err)
	}
}

// TestStickyPhaseEndsStarved: when every fragment of a Sticky window is out
// of data, the phase ends with EventStarved at once — no stall, no timeout —
// and hands the policy the window.
func TestStickyPhaseEndsStarved(t *testing.T) {
	w := smallFig5(t)
	del := uniform(w, 10*time.Microsecond)
	del["D"] = exec.Delivery{MeanWait: 10 * time.Microsecond, InitialDelay: time.Second}
	del["E"] = exec.Delivery{MeanWait: 10 * time.Microsecond, InitialDelay: time.Second}
	rt := newRT(t, w, testConfig(), del)
	e := dseEngine(t, rt)
	cE, _ := rt.Dec.ChainOf("E")
	cD, _ := rt.Dec.ChainOf("D")
	fE, fD := rt.NewPCFragment(cE), rt.NewPCFragment(cD)
	before := rt.Med.Now()
	ev, err := e.processPhase(SchedulingPlan{Frags: []*exec.Fragment{fD, fE}, Sticky: true, Timeout: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if ev.Kind != EventStarved || len(ev.Window) != 2 || rt.Med.Now() != before {
		t.Fatalf("event %v, window %d, clock %v → %v; want Starved over both fragments with the clock unmoved",
			ev.Kind, len(ev.Window), before, rt.Med.Now())
	}
}

// TestSweepRunsInputsDueAtOneInstant: two window fragments whose inputs
// first arrive at the same instant are each asked once before it — the
// phase's first asks, which find nothing — then both run after one stall
// to it, the second right after the first one's batch: a slot due exactly
// now is asked, not passed.
func TestSweepRunsInputsDueAtOneInstant(t *testing.T) {
	w := smallFig5(t)
	del := uniform(w, 10*time.Microsecond)
	del["D"] = exec.Delivery{InitialDelay: 100 * time.Millisecond}
	del["E"] = exec.Delivery{InitialDelay: 100 * time.Millisecond}
	cfg := testConfig()
	tr := &sim.Trace{}
	cfg.Trace = tr
	rt := newRT(t, w, cfg, del)
	e := dseEngine(t, rt)
	cD, _ := rt.Dec.ChainOf("D")
	cE, _ := rt.Dec.ChainOf("E")
	fD, fE := rt.NewPCFragment(cD), rt.NewPCFragment(cE)
	atD, okD := fD.NextArrival()
	atE, okE := fE.NextArrival()
	if !okD || !okE || atD != atE || atD < 100*time.Millisecond {
		t.Fatalf("first arrivals D=%v,%v E=%v,%v; want one instant after the 100ms delay", atD, okD, atE, okE)
	}
	work := *rt.Med.Work
	ev, err := e.processPhase(sweep(fD, fE))
	if err != nil {
		t.Fatal(err)
	}
	if ev.Kind != EventSPDone || !fD.Done() || !fE.Done() {
		t.Fatalf("event %v, D done=%v, E done=%v; want SPDone with both done", ev.Kind, fD.Done(), fE.Done())
	}
	if asks, stalls := rt.Med.Work.EmptyAsks-work.EmptyAsks, rt.Med.Work.Stalls-work.Stalls; asks != 2 || stalls != 1 {
		t.Errorf("%d empty asks and %d stalls; want the phase's 2 first asks and 1 stall", asks, stalls)
	}
	var batches []sim.Event
	for _, ev := range tr.Events {
		if ev.Kind == sim.EvBatch {
			batches = append(batches, ev)
		}
	}
	perBatch := time.Duration(cfg.BatchTuples) * (rt.Med.Costs.MoveT + rt.Med.Costs.ReceiveT)
	if len(batches) != 2 || batches[0].Note != "p_D first batch" || batches[0].At != atD ||
		batches[1].Note != "p_E first batch" || batches[1].At <= atD || batches[1].At > atD+2*perBatch {
		t.Errorf("first batches %v; want p_D at %v, then p_E right after its batch", batches, atD)
	}
}

// lateInput reads as a wrapper that will never deliver until the clock
// reaches from, and as its own input from then on: an input a probe of a
// silent wrapper, which stalls the clock, can find revived.
type lateInput struct {
	exec.TupleSource
	clock *sim.Clock
	from  time.Duration
}

func (l lateInput) Available(now time.Duration) int {
	if now < l.from {
		return 0
	}
	return l.TupleSource.Available(now)
}

func (l lateInput) NextArrival() (time.Duration, bool) {
	if l.clock.Now() < l.from {
		return 0, false
	}
	return l.TupleSource.NextArrival()
}

func (l lateInput) Exhausted() bool { return l.clock.Now() >= l.from && l.TupleSource.Exhausted() }

// TestProbeRetryReasksEveryFragment: a window whose every input reads
// "never" — p_D's dead wrapper and p_E's not yet revived one — stalls to
// the first probe of D. The retry must re-ask every fragment of the window,
// so p_E's first batch runs at the probe's instant and p_E completes before
// D's probes run out, which without a replica or partial results would be
// an error.
func TestProbeRetryReasksEveryFragment(t *testing.T) {
	w := smallFig5(t)
	cfg := testConfig()
	cfg.Faults = parsePlan(t, "D:kill@0")
	tr := &sim.Trace{}
	cfg.Trace = tr
	rt := newRT(t, w, cfg, uniform(w, 10*time.Microsecond))
	e := dseEngine(t, rt)
	cD, _ := rt.Dec.ChainOf("D")
	cE, _ := rt.Dec.ChainOf("E")
	fD, fE := rt.NewPCFragment(cD), rt.NewPCFragment(cE)
	fE.In = lateInput{fE.In, rt.Med.Clock, 10 * time.Millisecond}
	sp := SchedulingPlan{Frags: []*exec.Fragment{fD, fE}}
	ev, err := e.processPhase(sp)
	if err != nil || ev.Kind != EventSourceDown {
		t.Fatalf("first phase: %v, %v; want D's death reported", ev.Kind, err)
	}
	ev, err = e.processPhase(sp)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Kind != EventEndOfQF || ev.Frag != fE {
		t.Fatalf("event %v (%v); want p_E to finish", ev.Kind, ev.Frag)
	}
	var retry, first time.Duration = -1, -1
	for _, ev := range tr.Events {
		switch {
		case ev.Kind == sim.EvRetry && retry < 0:
			retry = ev.At
		case ev.Kind == sim.EvBatch && ev.Note == "p_E first batch":
			first = ev.At
		}
	}
	if retry < 0 || first != retry {
		t.Errorf("p_E's first batch at %v, want the first retry's instant %v", first, retry)
	}
}
