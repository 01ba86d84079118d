package source

import (
	"fmt"
	"time"

	"dqs/internal/relation"
	"dqs/internal/sim"
)

// Shared is one physical wrapper stream multiplexed across several queries:
// the wrapper executes its sub-query exactly once, on one deterministic
// production schedule, and every admitted query that scans the relation taps
// the stream through its own window-protocol queue. The mediator retains the
// delivered prefix, so a query admitted mid-stream replays rows the wrapper
// already produced (arriving no earlier than the attach instant) and then
// rides the live tail.
//
// The schedule is fixed at creation: the physical wrapper streams at its
// delivery rate into the mediator's retention buffer and is never throttled
// by any single consumer — per-query flow control happens at each tap's own
// credit window (Source.pump with WithSharedStream), exactly like a private
// wrapper's. Fault scripts and standby replicas cannot ride a shared stream;
// sources carrying them always stay private.
type Shared struct {
	name string
	// sendAt is the physical send instant of each row: the unthrottled pump
	// schedule (initial delay + per-row uniform delays, monotone).
	sendAt []time.Duration
	refs   int
	taps   int      // total attaches ever, for diagnostics
	pool   Recycler // supplied sendAt (WithRecycler); Release returns it
}

// NewShared builds the shared stream's production schedule for a table. The
// options describe the delivery behaviour (WithMeanWait, WithPhases,
// WithInitialDelay) and may supply the schedule's storage (WithRecycler);
// fault, standby, columnar and shared-stream options are rejected — the
// first two are incompatible with sharing, the last two are per-tap
// concerns.
func NewShared(name string, table *relation.Table, rng *sim.RNG, opts ...Option) (*Shared, error) {
	var s Source // the options' target only: it stays on the stack
	s.apply(opts)
	phases := s.phases
	if phases == nil {
		phases = s.wait1[:]
	}
	if len(s.faults) > 0 || s.standby || s.tcols != nil || s.shared != nil {
		return nil, fmt.Errorf("source %q: shared stream accepts delivery options only", name)
	}
	if err := validateSchedule(name, phases, s.initialDelay); err != nil {
		return nil, err
	}
	var sendAt []time.Duration
	if s.pool != nil {
		sendAt = s.pool.GetTimes(table.Len())
	}
	if sendAt == nil {
		sendAt = make([]time.Duration, 0, table.Len())
	}
	var at time.Duration
	for i := range table.Len() {
		d := rng.UniformDelay(waitIn(phases, i))
		if i == 0 {
			d += s.initialDelay
		}
		at += d
		sendAt = append(sendAt, at)
	}
	return &Shared{name: name, sendAt: sendAt, pool: s.pool}, nil
}

// Release hands the schedule's storage back to the Recycler that supplied
// it (see WithRecycler). Every tap's run is over: the stream must not be
// read again.
func (sh *Shared) Release() {
	if sh.pool != nil {
		sh.pool.PutTimes(sh.sendAt)
	}
	sh.sendAt = nil
}

// validateSchedule checks the delivery-schedule invariants shared between
// Source construction and Shared construction.
func validateSchedule(name string, phases []Phase, initialDelay time.Duration) error {
	if len(phases) == 0 {
		return fmt.Errorf("source %q: empty waiting-time schedule (need at least one phase)", name)
	}
	if phases[0].FromRow != 0 {
		return fmt.Errorf("source %q: waiting-time schedule must start at row 0", name)
	}
	for i := 1; i < len(phases); i++ {
		if phases[i].FromRow <= phases[i-1].FromRow {
			return fmt.Errorf("source %q: phase rows must be strictly increasing", name)
		}
	}
	for _, ph := range phases {
		if ph.W < 0 {
			return fmt.Errorf("source %q: negative waiting time %v", name, ph.W)
		}
		if ph.W > sim.MaxWait {
			return fmt.Errorf("source %q: waiting time %v: %w", name, ph.W, sim.ErrWaitTooLarge)
		}
	}
	if initialDelay < 0 {
		return fmt.Errorf("source %q: negative initial delay", name)
	}
	return nil
}

// Taps returns the total number of taps ever attached — how many query
// scans one physical stream served.
func (sh *Shared) Taps() int { return sh.taps }

// attach refcounts a new tap (called by Source construction).
func (sh *Shared) attach() { sh.refs++; sh.taps++ }

// detach releases one tap's reference.
func (sh *Shared) detach() {
	if sh.refs <= 0 {
		panic(fmt.Sprintf("source %q: detach without attached taps", sh.name))
	}
	sh.refs--
}

// Detach permanently disconnects the source from its queue: it stops
// pumping (a cancelled query's queues receive nothing further; credits
// granted before the detach still produce) and, for a shared-stream tap,
// releases its reference on the stream. Idempotent; a no-op detach of a
// private exhausted source is legal.
func (s *Source) Detach() {
	if s.detached {
		return
	}
	s.q.Settle()
	s.detached = true
	if s.shared != nil {
		s.shared.detach()
	}
}
