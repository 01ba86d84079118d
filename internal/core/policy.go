package core

import (
	"strings"
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
	// (only raised for plans with a positive Timeout).
	EventRateChange
	// EventTimeout: every scheduled fragment starved past the plan's
	// Timeout (only raised for plans with a positive Timeout).
	EventTimeout
	// EventOverflow: a fragment exhausted the memory grant.
	EventOverflow
	// EventStarved: every fragment of a Sticky plan's window starved. The
	// scrambling engine's reaction to starvation is the policy's, so the
	// phase ends here instead of stalling (see SchedulingPlan.Sticky).
	EventStarved
	// EventSourceDown: a wrapper stopped delivering — a fault transition
	// crossed the current virtual time (disconnect or permanent death), or
	// the mediator's fault layer abandoned the wrapper's fragments in
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
	case EventStarved:
		return "Starved"
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
	// The slice is valid until the policy's next Plan, which may reuse its
	// storage (DSE's plan, SCR's window, MA's materialization fragments and
	// DPHJ's feeds do).
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
	// When the whole window starves, the phase ends with EventStarved and
	// the policy decides whether to wait or scramble.
	Sticky bool
	// Timeout, when positive, makes the phase adaptive: the DQP raises the
	// paper's RateChange and TimeOut interruptions (§1). The communication
	// manager observes every iteration and EventRateChange ends the phase on
	// a significant delivery-rate change; a fully starved plan whose next
	// arrival is more than Timeout away ends it with EventTimeout; stalls
	// are traced. Zero runs the phase like the static strategies: no
	// observation, and starvation is waited out silently.
	Timeout time.Duration
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

// Attacher is an optional policy capability: being told of a query runtime
// attached between scheduling rounds (Engine.Attach), before the engine
// appends it to the state. No built-in needs it — each takes new runtimes up
// from State.Runtimes at its next Plan — but a policy that wraps another can
// prepare the newcomer here.
type Attacher interface {
	Attach(st *State, rt *exec.Runtime) error
}

// Canceller, FavorSetter, PendingDescriber and StarvationHandler are no
// longer consulted: the runtime cancels queries (Engine.CancelQuery), the
// engine holds the favoured query on State (Engine.Favor) and describes
// what is pending, and a starved Sticky window ends with EventStarved. They
// stay only because bench/ names them — remove with the next [benchmark] PR.
type (
	Canceller interface {
		Cancel(st *State, rt *exec.Runtime) error
	}
	FavorSetter interface {
		SetFavored(rt *exec.Runtime)
	}
	PendingDescriber interface {
		PendingSummary() string
	}
	StarvationHandler interface {
		OnStarved(st *State, sp SchedulingPlan) (resched bool, err error)
	}
)

// State is the execution state the engine shares with its policy: the
// mediator, the attached query runtimes and the query a multi-query service
// favours. Policies use it for clock access, stalls, cost charging and the
// replan counter, keeping user policies free of internal package imports;
// everything else is reachable through Mediator.
type State struct {
	med *exec.Mediator
	rts []*exec.Runtime
	// favored is the query Engine.Favor biases planning toward (nil for
	// none). DSE reads it, so a policy that delegates planning to DSE keeps
	// the bias.
	favored *exec.Runtime
}

// Mediator returns the shared execution site.
func (st *State) Mediator() *exec.Mediator { return st.med }

// Runtimes returns the attached query runtimes in attachment order.
func (st *State) Runtimes() []*exec.Runtime { return st.rts }

// Now returns the current virtual time.
func (st *State) Now() time.Duration { return st.med.Now() }

// StallUntil advances the clock to t, accounting the gap as idle time.
func (st *State) StallUntil(t time.Duration) { st.med.Clock.Stall(t) }

// ChargeInstructions charges n CPU instructions to the mediator processor,
// advancing the clock by the configured MIPS rate.
func (st *State) ChargeInstructions(n int64) { st.med.Costs.CPU.Charge(n) }

// CountReplan bumps the replan counter reported in every Result.
func (st *State) CountReplan() { st.med.CountReplan() }

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

// pending lists every unfinished chain of every unfinished query, for
// livelock and no-progress diagnostics.
func (st *State) pending() string {
	var parts []string
	for _, rt := range st.rts {
		if st.queryDone(rt) {
			continue
		}
		for _, c := range rt.Dec.Chains {
			if !rt.ChainFinished(c) {
				parts = append(parts, prefixLabel(rt.Label)+c.Name)
			}
		}
	}
	return "pending: " + strings.Join(parts, ", ")
}
