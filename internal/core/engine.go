package core

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"dqs/internal/exec"
)

// Engine is the unified executor of §3: it interleaves the active policy's
// planning phases with DQP execution phases until the policy reports every
// attached query complete. The DQP batch loop, stalls, interruption events
// and finalization are strategy-agnostic; everything strategy-specific —
// which fragments run next, in what discipline, and how interruptions are
// absorbed — lives in the Policy. One engine can drive several queries on a
// shared mediator (the paper's §6 multi-query direction): their fragments
// compete in one scheduling plan.
type Engine struct {
	med *exec.Mediator
	st  *State
	pol Policy
	// lastPlan is the plan of the latest phase, for diagnostics.
	lastPlan SchedulingPlan

	// Livelock guard state (see Step): scheduling rounds that advance
	// neither virtual time nor any progress counter indicate an engine or
	// policy bug; fail loudly with diagnostics instead of spinning.
	lastProgress progressMark
	stuckRounds  int

	// ready is processPhase's readiness array, one slot per window fragment,
	// in readyBuf unless a window outgrows it.
	ready    []time.Duration
	readyBuf [32]time.Duration
}

// progressMark is the livelock guard's comparable progress snapshot. It is a
// comparable struct, not a formatted string: the guard runs every round, so
// it must not allocate.
type progressMark struct {
	now        time.Duration
	memUsed    int64
	diskWrites int64
}

// newEngine prepares an engine driving the given query runtimes on the
// shared mediator under the policy the factory builds.
func newEngine(med *exec.Mediator, rts []*exec.Runtime, factory PolicyFactory) (*Engine, error) {
	if len(rts) == 0 {
		return nil, fmt.Errorf("core: no runtimes")
	}
	for _, rt := range rts {
		if rt.Med != med {
			return nil, fmt.Errorf("core: runtime %q is not attached to the engine's mediator", rt.Label)
		}
	}
	st := &State{med: med, rts: rts}
	pol, err := factory(st)
	if err != nil {
		return nil, err
	}
	e := &Engine{med: med, st: st, pol: pol}
	e.ready = e.readyBuf[:0]
	return e, nil
}

// Run executes the attached queries under the engine's policy and returns
// the per-query results in attachment order.
func (e *Engine) Run() ([]exec.Result, error) {
	for {
		ok, err := e.Step()
		if err != nil {
			return nil, err
		}
		if !ok {
			return e.Finalize(), nil
		}
	}
}

// Step runs one scheduling round — one planning point, one execution phase,
// one event reaction — and reports whether unfinished work remains. It
// returns (false, nil) without running a phase when the policy already
// reports every query complete. A stepped engine is how the multi-query
// server admits, favors and cancels queries between rounds.
func (e *Engine) Step() (bool, error) {
	if e.pol.Done(e.st) {
		return false, nil
	}
	med := e.med
	progress := progressMark{now: med.Now(), memUsed: med.Mem.Used(), diskWrites: med.Disk.Stats().Writes}
	if progress == e.lastProgress {
		e.stuckRounds++
		if e.stuckRounds > 100000 {
			return false, fmt.Errorf("core: engine livelock at t=%v; %s", med.Now(), e.pendingSummary())
		}
	} else {
		e.lastProgress = progress
		e.stuckRounds = 0
	}
	sp, err := e.pol.Plan(e.st)
	if err != nil {
		return false, err
	}
	med.Work.PlanningPoints++
	if len(sp.Frags) == 0 {
		return false, fmt.Errorf("core: policy %s planned no work with queries unfinished; %s",
			e.pol.Name(), e.pendingSummary())
	}
	e.lastPlan = sp
	ev, err := e.processPhase(sp)
	if err != nil {
		return false, err
	}
	if err := e.pol.OnEvent(e.st, ev); err != nil {
		return false, err
	}
	return true, nil
}

// Finalize builds the per-query results in attachment order. Call it once,
// after Step has reported no work remaining (Run does both). Each query's
// response time is its runtime's completion instant; a user-registered
// policy whose Done reports the work finished before a runtime completed
// leaves that query to finish at the engine's final clock reading.
func (e *Engine) Finalize() []exec.Result {
	results := make([]exec.Result, len(e.st.rts))
	for i := range results {
		results[i] = e.Result(i)
	}
	return results
}

// Result builds the result of the i-th attached query, Finalize's i-th
// element, for a caller that keeps results in storage of its own.
func (e *Engine) Result(i int) exec.Result {
	rt := e.st.rts[i]
	at, ok := rt.CompletedAt()
	if !ok {
		at = e.med.Now()
	}
	return rt.FinishAt(e.pol.Name(), at)
}

// Attach adds a query runtime to a (possibly running) engine between
// scheduling rounds: every built-in policy takes the new query's chains up
// at its next Plan. The runtime must have been added to the engine's mediator
// (Mediator.AddQuery) at the current virtual time, so its wrappers start
// producing now rather than at the mediator's epoch. A policy implementing
// Attacher is told first.
func (e *Engine) Attach(rt *exec.Runtime) error {
	if rt.Med != e.med {
		return fmt.Errorf("core: runtime %q is not attached to the engine's mediator", rt.Label)
	}
	if slices.Contains(e.st.rts, rt) {
		return fmt.Errorf("core: runtime %q already attached", rt.Label)
	}
	if a, ok := e.pol.(Attacher); ok {
		if err := a.Attach(e.st, rt); err != nil {
			return err
		}
	}
	e.st.rts = append(e.st.rts, rt)
	return nil
}

// CancelQuery abandons one attached query between scheduling rounds, under
// every policy: Runtime.Cancel abandons the query's unfinished fragments,
// drops their temps, returns its memory to the shared grant and completes
// the query, which detaches its wrappers and drops its queues from the
// communication manager; completion is how every built-in policy knows to
// stop planning it. The cancelled query still yields a Result from Finalize
// (complete at cancellation time, with whatever tuples it produced).
func (e *Engine) CancelQuery(rt *exec.Runtime) error {
	if !slices.Contains(e.st.rts, rt) {
		return fmt.Errorf("core: runtime %q is not attached", rt.Label)
	}
	rt.Cancel()
	return nil
}

// Favor biases the next planning points toward one query: the engine holds
// it on State, and DSE — or a policy that delegates planning to DSE — orders
// that query's schedulable fragments before every other query's, keeping
// the within-query order unchanged. A nil runtime restores the global
// critical-degree order. The other built-in policies ignore it.
func (e *Engine) Favor(rt *exec.Runtime) { e.st.favored = rt }

// pendingSummary describes the stuck engine for diagnostics: the active
// policy, the current scheduling plan and every unfinished chain.
func (e *Engine) pendingSummary() string {
	return fmt.Sprintf("policy %s, plan [%s]; %s", e.pol.Name(), spLabels(e.lastPlan.Frags), e.st.pending())
}

func prefixLabel(label string) string {
	if label == "" {
		return ""
	}
	return label + "/"
}

func spLabels(sp []*exec.Fragment) string {
	labels := make([]string, len(sp))
	for i, f := range sp {
		labels[i] = f.Label
	}
	return strings.Join(labels, " > ")
}
