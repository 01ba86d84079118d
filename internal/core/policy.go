package core

import (
	"time"

	"dqs/internal/exec"
)

// EventKind classifies DQP interruption events (§3.2). The DQP batch loop
// is strategy-agnostic; these events are how it reports back to the active
// scheduling policy.
type EventKind int

const (
	// EventSPDone: every fragment of the scheduling plan terminated (or no
	// scheduled fragment has a future arrival and none could finalize).
	EventSPDone EventKind = iota
	// EventEndOfQF: one query fragment terminated (normal interruption).
	EventEndOfQF
	// EventRateChange: the CM detected a significant delivery-rate change
	// (only raised for plans with ObserveRates set).
	EventRateChange
	// EventTimeout: every scheduled fragment starved past the plan's
	// Timeout (only raised for plans with a positive Timeout).
	EventTimeout
	// EventOverflow: a fragment exhausted the memory grant.
	EventOverflow
	// EventResched: the policy's starvation handler asked for a fresh
	// planning phase.
	EventResched
	// EventSourceDown: a wrapper stopped delivering — a fault transition
	// crossed the current virtual time (disconnect or permanent death), or
	// the resilience layer abandoned the wrapper's fragments in
	// partial-result mode. Only raised under an active fault plan.
	EventSourceDown
	// EventSourceUp: a disconnected wrapper resumed delivering.
	EventSourceUp
	// EventFailover: a standby replica took over a dead wrapper's stream.
	EventFailover
)

// String names the event kind for diagnostics.
func (k EventKind) String() string {
	switch k {
	case EventSPDone:
		return "SPDone"
	case EventEndOfQF:
		return "EndOfQF"
	case EventRateChange:
		return "RateChange"
	case EventTimeout:
		return "TimeOut"
	case EventOverflow:
		return "Overflow"
	case EventResched:
		return "Resched"
	case EventSourceDown:
		return "SourceDown"
	case EventSourceUp:
		return "SourceUp"
	case EventFailover:
		return "Failover"
	}
	return "Unknown"
}

// Event is one DQP interruption delivered to the policy.
type Event struct {
	Kind EventKind
	// Frag is the fragment that ended the phase (EndOfQF, Overflow).
	Frag *exec.Fragment
	// Wrapper names the source whose delivery rate changed (RateChange) or
	// whose availability changed (SourceDown, SourceUp, Failover).
	Wrapper string
	// Window is the effective scheduling window when the phase ended: for
	// Sticky plans it is the narrowed prefix of the plan (see
	// SchedulingPlan.Sticky), otherwise the full plan.
	Window []*exec.Fragment
}

// SchedulingPlan is what a policy hands the executor at each planning
// point: the fragments to run and the execution mode of the phase.
type SchedulingPlan struct {
	// Frags are the scheduled fragments in strictly decreasing priority.
	Frags []*exec.Fragment
	// RoundRobin switches the phase from priority order to a sweep: the
	// same phase loop, with two conditions changed — after a batch it moves
	// on to the next fragment instead of returning to the top, and a
	// completed fragment does not end the phase. MA's materialization phase
	// and DPHJ's feeds run this way.
	RoundRobin bool
	// Sticky narrows the plan as the phase runs: once a batch is processed
	// from the fragment at position i, fragments after i drop out of the
	// scan. This is the scrambling engine's suspended-tree rule — work
	// returns to the earliest resumable operator tree and everything the
	// engine scrambled away from stays suspended until a new planning point.
	Sticky bool
	// ObserveRates feeds the communication manager every iteration and
	// raises EventRateChange on significant delivery-rate changes.
	ObserveRates bool
	// Timeout, when positive, bounds how long the phase may stall on a
	// fully starved plan before raising EventTimeout; zero waits silently,
	// like the static strategies.
	Timeout time.Duration
	// TraceStalls records EvStall trace events for starvation stalls.
	TraceStalls bool
}

// Policy decides, at every planning point, which fragments the unified DQP
// executor runs next and how it reacts to the interruption events the
// execution phase ends with. Every strategy — SEQ, MA, SCR, DSE, DPHJ, the
// multi-query engine and user-registered policies — is one implementation.
type Policy interface {
	// Name labels the policy: results, traces and Gantt charts carry it.
	Name() string
	// Done reports whether every attached query has produced its full
	// result.
	Done(st *State) bool
	// Plan returns the next scheduling plan. It is called once per
	// planning point and must return at least one fragment, or an error
	// describing why no progress is possible.
	Plan(st *State) (SchedulingPlan, error)
	// OnEvent reacts to the interruption event that ended the last
	// execution phase, before the next planning point.
	OnEvent(st *State, ev Event) error
}

// StarvationHandler is an optional policy capability: when every fragment
// of the effective scheduling window is starved, the executor consults it
// instead of applying the default stall-or-timeout reaction. The sp it
// receives carries the effective window (narrowed for Sticky plans).
// Returning resched=true ends the phase with EventResched (a new planning
// point); false resumes the phase scan after whatever clock advance the
// handler performed.
type StarvationHandler interface {
	OnStarved(st *State, sp SchedulingPlan) (resched bool, err error)
}

// PendingDescriber is an optional policy capability: extra per-strategy
// detail for livelock and no-progress diagnostics.
type PendingDescriber interface {
	PendingSummary() string
}

// Attacher is an optional policy capability: being told of a query runtime
// attached between scheduling rounds (Engine.Attach), before the engine
// appends it to the state. No built-in needs it — each takes new runtimes up
// from State.Runtimes at its next Plan — but a policy that wraps another can
// prepare the newcomer here.
type Attacher interface {
	Attach(st *State, rt *exec.Runtime) error
}

// Canceller is no longer consulted: Engine.CancelQuery cancels through the
// runtime under every policy. It stays only because bench/ names it —
// remove with the next [benchmark] PR.
type Canceller interface {
	Cancel(st *State, rt *exec.Runtime) error
}

// FavorSetter is an optional policy capability: biasing planning toward one
// query's fragments (Engine.Favor) so a multi-query service can impose
// cross-query fairness on top of the policy's own priority order. nil
// restores the policy's global order.
type FavorSetter interface {
	SetFavored(rt *exec.Runtime)
}

// State is the execution state the engine shares with its policy: the
// mediator, the attached query runtimes and the current plan. Policies use
// it for clock access, stalls, cost charging and scheduler counters, keeping
// user policies free of internal package imports.
type State struct {
	med      *exec.Mediator
	rts      []*exec.Runtime
	lastPlan SchedulingPlan
}

// Mediator returns the shared execution site.
func (st *State) Mediator() *exec.Mediator { return st.med }

// Runtimes returns the attached query runtimes in attachment order.
func (st *State) Runtimes() []*exec.Runtime { return st.rts }

// Config returns the execution configuration.
func (st *State) Config() exec.Config { return st.med.Cfg }

// Now returns the current virtual time.
func (st *State) Now() time.Duration { return st.med.Now() }

// StallUntil advances the clock to t, accounting the gap as idle time.
func (st *State) StallUntil(t time.Duration) { st.med.Clock.Stall(t) }

// ChargeInstructions charges n CPU instructions to the mediator processor,
// advancing the clock by the configured MIPS rate.
func (st *State) ChargeInstructions(n int64) { st.med.Costs.CPU.Charge(n) }

// CountReplan, CountTimeout, CountDegrade and CountMemRepair bump the
// scheduler-activity counters reported in every Result.
func (st *State) CountReplan()    { st.med.CountReplan() }
func (st *State) CountTimeout()   { st.med.CountTimeout() }
func (st *State) CountDegrade()   { st.med.CountDegrade() }
func (st *State) CountMemRepair() { st.med.CountMemRepair() }

// CurrentPlan returns the plan of the execution phase that just ended.
func (st *State) CurrentPlan() SchedulingPlan { return st.lastPlan }

// NextArrival returns the earliest next input arrival among the unfinished
// fragments of the plan.
func (st *State) NextArrival(sp SchedulingPlan) (time.Duration, bool) {
	return nextArrival(sp.Frags)
}

// queryDone reports whether rt's query is complete — every chain finished,
// or cancelled by Engine.CancelQuery. The built-in policies skip such a
// query's chains wherever they plan.
func (st *State) queryDone(rt *exec.Runtime) bool {
	_, done := rt.CompletedAt()
	return done
}

// allQueriesDone reports whether every attached query is complete: the Done
// of every built-in policy.
func (st *State) allQueriesDone() bool {
	for _, rt := range st.rts {
		if !st.queryDone(rt) {
			return false
		}
	}
	return true
}
