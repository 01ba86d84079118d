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
	s := &Source{
		name:   name,
		nrows:  table.Len(),
		rng:    rng,
		phases: []Phase{{FromRow: 0, W: 0}},
	}
	for _, o := range opts {
		o(s)
	}
	if len(s.faults) > 0 || s.standby || s.tcols != nil || s.shared != nil {
		return nil, fmt.Errorf("source %q: shared stream accepts delivery options only", name)
	}
	if err := validateSchedule(s); err != nil {
		return nil, err
	}
	var sendAt []time.Duration
	if s.pool != nil {
		sendAt = s.pool.GetTimes(s.nrows)
	}
	if sendAt == nil {
		sendAt = make([]time.Duration, 0, s.nrows)
	}
	var at time.Duration
	for i := 0; i < s.nrows; i++ {
		d := rng.UniformDelay(s.waitFor(i))
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
func validateSchedule(s *Source) error {
	if len(s.phases) == 0 {
		return fmt.Errorf("source %q: empty waiting-time schedule (need at least one phase)", s.name)
	}
	if s.phases[0].FromRow != 0 {
		return fmt.Errorf("source %q: waiting-time schedule must start at row 0", s.name)
	}
	for i := 1; i < len(s.phases); i++ {
		if s.phases[i].FromRow <= s.phases[i-1].FromRow {
			return fmt.Errorf("source %q: phase rows must be strictly increasing", s.name)
		}
	}
	for _, ph := range s.phases {
		if ph.W < 0 {
			return fmt.Errorf("source %q: negative waiting time %v", s.name, ph.W)
		}
		if ph.W > sim.MaxWait {
			return fmt.Errorf("source %q: waiting time %v: %w", s.name, ph.W, sim.ErrWaitTooLarge)
		}
	}
	if s.initialDelay < 0 {
		return fmt.Errorf("source %q: negative initial delay", s.name)
	}
	return nil
}

// Name returns the shared stream's wrapper name.
func (sh *Shared) Name() string { return sh.name }

// Rows returns the number of rows the stream delivers.
func (sh *Shared) Rows() int { return len(sh.sendAt) }

// Refs returns the number of currently attached taps.
func (sh *Shared) Refs() int { return sh.refs }

// Taps returns the total number of taps ever attached — how many query
// scans one physical stream served.
func (sh *Shared) Taps() int { return sh.taps }

// SendAt returns the physical send instant of row i.
func (sh *Shared) SendAt(i int) time.Duration { return sh.sendAt[i] }

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
