// Package source simulates wrappers: autonomous data sources that produce
// tuples with unpredictable delays and ship them to the mediator through the
// window-protocol queues of package comm.
//
// Following the paper's methodology (§5.1.3), the production of each tuple
// is delayed by a random time drawn uniformly from [0, 2w], giving a mean
// waiting time of w. A source may change its mean waiting time at given row
// boundaries (slow delivery, bursty arrival) and may impose an initial delay
// before its first tuple, covering all three delay classes of §1.2.
//
// Production is simulated lazily but eagerly up to the window limit: a
// source always fills its queue until the window protocol suspends it or it
// runs out of rows. Because the source is the queue's only producer and the
// engine's pops are the only events that free window slots, this pump-style
// simulation is exact: arrival timestamps never depend on information that
// is not yet known.
//
// "Eagerly" is a statement about what readers observe, not about when the
// simulation runs: the queue records the instants of the consumer's credits
// and the source replays the whole run in one ResumeN when the queue settles
// (Queue.Settle in comm). Every accessor of a source's production state settles
// its queue first, so no reader can tell the replay from a resume per credit.
package source

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"dqs/internal/comm"
	"dqs/internal/fault"
	"dqs/internal/relation"
	"dqs/internal/sim"
)

// Phase is one segment of a source's delivery-rate schedule: from row
// FromRow (inclusive) onward, the mean waiting time is W.
type Phase struct {
	FromRow int
	W       time.Duration
}

// Source simulates one wrapper executing its sub-query and streaming the
// result to the mediator.
type Source struct {
	name    string
	nrows   int
	q       *comm.Queue
	rng     *sim.RNG
	netTime time.Duration

	// phases is the advertised schedule, wait1 backs a one-phase one, and
	// sched is phases with the fault script's bursts spliced in (the pump's).
	phases       []Phase
	wait1        [1]Phase
	sched        []Phase
	initialDelay time.Duration

	// Fault-injection state. faults is the compiled per-source schedule in
	// row order (empty for the fault-free path, which stays bit-identical:
	// no extra draws, no extra branches taken). frng is the dedicated fault
	// RNG for restart re-draws; fidx is the cursor into faults.
	faults  []fault.Clause
	frng    *sim.RNG
	fidx    int
	dead    bool
	outages []fault.Outage

	// standby marks a replica built inactive: it neither registers as the
	// queue's producer nor pumps until Activate. firstRow is the row the
	// initial delay applies to (the row a replica resumes at).
	standby  bool
	firstRow int

	// shared, when non-nil, replaces this source's own production simulation
	// with the precomputed physical schedule of a Shared stream: the wrapper
	// executed the sub-query once, and this source is one query's tap on the
	// multicast (see Shared). detached marks a tap that has left the stream.
	shared   *Shared
	detached bool

	next      int           // next row to produce
	producing bool          // a tuple is produced (or in production) but not yet sent
	readyAt   time.Duration // completion time of the in-flight production
	startAt   time.Duration // production start time of the next tuple
	blocked   bool          // suspended by the window protocol

	// Pushdown state (WithColumnar). tcols is the shared column-major table;
	// keep lists the live (projected) full-schema columns, in queue column
	// order; predIdx/predLess is the pushed-down scan predicate (predIdx < 0 =
	// none).
	tcols    [][]int64
	keep     []int
	predIdx  int
	predLess int64

	// Staging buffers for the pump: one Resume or ResumeN simulates every
	// production its credits allow and hands the whole run to the queue in a
	// single PushColsN. The pump evaluates the predicate wrapper-side and
	// stages only arrivals and pass bits — a pump's staged rows are one
	// contiguous table run, so the flush hands PushColsN sub-slices of the
	// shared transpose directly, copying each live column into the ring
	// exactly once. Filtered rows claim their window slot and arrival (flow
	// control and rate estimation are pre-filter), but their value positions
	// are unspecified and never read: the pass bit gates every consumer.
	stageAt   []time.Duration
	stagePass []bool
	colViews  [][]int64  // flush scratch: per-live-column views of the staged run
	views     [4][]int64 // backs colViews for up to four live columns

	// pool, when set (WithRecycler), supplies the staging buffers and takes
	// them back on Release.
	pool Recycler
}

// Recycler supplies the per-run buffers of sources and shared streams — a
// shared stream's schedule, a source's staging — and takes them back on
// Release, so a mediator running batch after batch reuses them. GetTimes
// returns a length-zero slice of at least the given capacity or nil;
// GetBools a length-zero slice of any capacity or nil. Recycled buffers
// carry capacity only: every value is written before it is read.
type Recycler interface {
	GetTimes(capacity int) []time.Duration
	PutTimes([]time.Duration)
	GetBools() []bool
	PutBools([]bool)
}

// errColumnarMismatch reports a source whose WithColumnar option is missing
// or projects a different number of columns than its queue's slots carry.
var errColumnarMismatch = errors.New("source: columnar projection does not match the queue")

// Option configures a Source (New) or a shared stream (NewShared). It is a
// plain value, applied in order by New and NewShared, so configuring a
// source allocates nothing. Ownership: New and NewShared keep no Option, but
// they retain — without copying — the phases of WithPhases, the keep list
// and columns of WithColumnar and the fault script's clauses; the caller
// must not modify those slices while the source or stream lives.
type Option struct {
	kind     optionKind
	d        time.Duration // mean wait, initial delay or start time
	phases   []Phase
	script   *fault.Script
	cols     [][]int64
	keep     []int
	predIdx  int
	predLess int64
	pool     Recycler
	shared   *Shared
}

type optionKind uint8

const (
	optMeanWait optionKind = iota + 1
	optPhases
	optInitialDelay
	optFaults
	optColumnar
	optStandby
	optStartTime
	optRecycler
	optShared
)

// WithMeanWait sets a single constant mean waiting time for all rows.
func WithMeanWait(w time.Duration) Option { return Option{kind: optMeanWait, d: w} }

// WithPhases sets a piecewise waiting-time schedule. Phases must start at
// row 0 and be strictly increasing in FromRow. The slice is retained.
func WithPhases(phases ...Phase) Option {
	if phases == nil {
		phases = []Phase{} // no phases: an empty schedule, refused by name
	}
	return Option{kind: optPhases, phases: phases}
}

// WithInitialDelay delays the production of the first tuple by d on top of
// its regular random delay (the "initial delay" class of §1.2).
func WithInitialDelay(d time.Duration) Option { return Option{kind: optInitialDelay, d: d} }

// WithFaults injects a compiled fault schedule: the script's clauses strike
// at their row boundaries as the source produces. Clauses must be sorted by
// row (fault.Plan.ClausesFor compiles them that way). A nil script injects
// nothing.
func WithFaults(sc *fault.Script) Option { return Option{kind: optFaults, script: sc} }

// WithColumnar gives the source its data and the selection and projection
// pushed down to the wrapper; every source needs it. cols is the column-major
// form of the source's table (relation.Table.Columns, shared and read-only);
// keep lists the full-schema indices of the live columns that actually cross
// the wire, in queue column order, and is retained; predIdx/predLess is the
// plan's scan predicate (column < less) evaluated wrapper-side, predIdx < 0
// for none. The queue must already have width len(keep)
// (comm.Queue.SetColumnar).
func WithColumnar(cols [][]int64, keep []int, predIdx int, predLess int64) Option {
	return Option{kind: optColumnar, cols: cols, keep: keep, predIdx: predIdx, predLess: predLess}
}

// AsStandby builds the source inactive: it does not register as the queue's
// producer and does not pump until Activate — the replica half of a
// failover pair.
func AsStandby() Option { return Option{kind: optStandby} }

// WithStartTime starts production at virtual time t instead of zero: the
// mediator sent this sub-query out mid-run (a query admitted to an already
// running multi-query service). The first tuple's delay is drawn from t.
func WithStartTime(t time.Duration) Option { return Option{kind: optStartTime, d: t} }

// WithRecycler draws the source's (or shared stream's) buffers from r; the
// owner hands them back with Release once the run is over.
func WithRecycler(r Recycler) Option { return Option{kind: optRecycler, pool: r} }

// WithSharedStream attaches the source to a shared physical stream: instead
// of simulating its own wrapper, it replays sh's production schedule into
// its queue under this query's own credit window. The attach is refcounted
// on sh; Detach releases it.
func WithSharedStream(sh *Shared) Option { return Option{kind: optShared, shared: sh} }

// apply configures s from opts in order. It leaves a one-wait schedule (the
// default: one zero-wait phase) in wait1 with phases nil; pointing phases at
// it here would move every Source it configures to the heap.
func (s *Source) apply(opts []Option) {
	for i := range opts {
		o := &opts[i]
		switch o.kind {
		case optMeanWait:
			s.wait1[0] = Phase{W: o.d}
			s.phases = nil
		case optPhases:
			s.phases = o.phases
		case optInitialDelay:
			s.initialDelay = o.d
		case optFaults:
			if o.script != nil {
				s.faults, s.frng = o.script.Clauses, o.script.RNG
			}
		case optColumnar:
			s.tcols, s.keep, s.predIdx, s.predLess = o.cols, o.keep, o.predIdx, o.predLess
		case optStandby:
			s.standby = true
		case optStartTime:
			s.startAt = o.d
		case optRecycler:
			s.pool = o.pool
		case optShared:
			s.shared = o.shared
		}
	}
}

// New creates a source delivering the given table into q. netTime is the
// per-tuple network transit time. The source immediately pumps tuples into
// the queue (production starts at virtual time zero, when the mediator sends
// the sub-queries out).
func New(name string, table *relation.Table, q *comm.Queue, rng *sim.RNG, netTime time.Duration, opts ...Option) (*Source, error) {
	s := &Source{
		name:    name,
		nrows:   table.Len(),
		q:       q,
		rng:     rng,
		netTime: netTime,
	}
	s.apply(opts)
	if s.phases == nil {
		s.phases = s.wait1[:]
	}
	if err := ValidateSchedule(s.phases, s.initialDelay); err != nil {
		return nil, fmt.Errorf("source %q: %w", name, err)
	}
	for i := 1; i < len(s.faults); i++ {
		if s.faults[i].Row < s.faults[i-1].Row {
			return nil, fmt.Errorf("source %q: fault clauses not in row order", name)
		}
	}
	if len(s.faults) > 0 && s.frng == nil {
		return nil, fmt.Errorf("source %q: fault script without an RNG", name)
	}
	s.sched = spliceBursts(s.phases, s.faults, s.nrows)
	if s.shared != nil {
		if len(s.faults) > 0 {
			return nil, fmt.Errorf("source %q: fault scripts cannot ride a shared stream", name)
		}
		if s.standby {
			return nil, fmt.Errorf("source %q: a standby replica cannot tap a shared stream", name)
		}
		if n := len(s.shared.sendAt); n != s.nrows {
			return nil, fmt.Errorf("source %q: shared stream carries %d rows, table has %d", name, n, s.nrows)
		}
	}
	if s.tcols == nil {
		return nil, fmt.Errorf("source %q: %w: no WithColumnar option", name, errColumnarMismatch)
	}
	if len(s.keep) != q.Width() {
		return nil, fmt.Errorf("source %q: %w: %d live columns for a width-%d queue", name, errColumnarMismatch, len(s.keep), q.Width())
	}
	for _, c := range s.keep {
		if c < 0 || c >= len(s.tcols) {
			return nil, fmt.Errorf("source %q: live column %d outside width-%d table", name, c, len(s.tcols))
		}
	}
	if s.predIdx >= len(s.tcols) {
		return nil, fmt.Errorf("source %q: predicate column %d outside width-%d table", name, s.predIdx, len(s.tcols))
	}
	if s.shared != nil {
		s.shared.attach()
	}
	if len(s.keep) <= len(s.views) {
		s.colViews = s.views[:len(s.keep)]
	} else {
		s.colViews = make([][]int64, len(s.keep))
	}
	if s.pool != nil {
		s.stageAt, s.stagePass = s.pool.GetTimes(q.Capacity()), s.pool.GetBools()
	}
	if s.stageAt == nil {
		s.stageAt = make([]time.Duration, 0, q.Capacity())
	}
	if s.stagePass == nil {
		s.stagePass = make([]bool, 0, q.Capacity())
	}
	if !s.standby {
		q.SetProducer(s)
		s.pump(s.startAt)
	}
	return s, nil
}

// Release hands the source's staging buffers back to its Recycler (see
// WithRecycler). The run is over: the source must not produce again.
func (s *Source) Release() {
	if s.pool != nil {
		s.pool.PutTimes(s.stageAt)
		s.pool.PutBools(s.stagePass)
	}
	s.stageAt, s.stagePass = nil, nil
}

// Rows returns the total number of tuples this source delivers.
func (s *Source) Rows() int { return s.nrows }

// The production-state accessors below settle the queue first: production
// owed to credits the queue has recorded but not replayed yet is part of the
// state they report.

// Exhausted reports whether every tuple has been sent to the queue.
func (s *Source) Exhausted() bool {
	s.q.Settle()
	return s.next >= s.nrows && !s.producing
}

// Blocked reports whether the window protocol currently suspends the source.
func (s *Source) Blocked() bool {
	s.q.Settle()
	return s.blocked
}

// Dead reports whether a kill clause permanently stopped the source with
// rows undelivered.
func (s *Source) Dead() bool {
	s.q.Settle()
	return s.dead
}

// Outages returns the delivery interruptions recorded so far, in row order.
// The eager pump records an outage when it produces the row it strikes, so
// entries can carry future timestamps; callers surface them when virtual
// time reaches the boundary. The slice aliases internal state: read only.
func (s *Source) Outages() []fault.Outage {
	s.q.Settle()
	return s.outages
}

// NextRow returns the first row not yet sent to the queue — where a
// failover replica resumes the stream.
func (s *Source) NextRow() int {
	s.q.Settle()
	return s.next
}

// Activate starts a standby replica at virtual time now, resuming delivery
// at fromRow: it becomes the queue's producer (replacing the dead primary)
// and pumps. The stream restarts after the connect delay; a restart replica
// additionally re-pays the production time of rows [0, fromRow) — a cold
// standby re-runs the sub-query from the beginning and discards the prefix
// — while a replay (warm) standby resumes mid-stream immediately.
func (s *Source) Activate(now time.Duration, fromRow int, connect time.Duration, restart bool) {
	if !s.standby {
		panic(fmt.Sprintf("source %q: Activate on a non-standby source", s.name))
	}
	if fromRow < 0 || fromRow > s.nrows {
		panic(fmt.Sprintf("source %q: Activate from row %d of %d", s.name, fromRow, s.nrows))
	}
	s.standby = false
	start := now + connect
	if restart {
		for i := 0; i < fromRow; i++ {
			start += s.rng.UniformDelay(waitIn(s.phases, i))
		}
	}
	s.next = fromRow
	s.firstRow = fromRow
	s.startAt = start
	s.q.SetProducer(s)
	s.pump(start)
}

// waitIn returns the mean waiting time schedule sched gives row.
func waitIn(sched []Phase, row int) time.Duration {
	w := sched[0].W
	for _, ph := range sched {
		if row >= ph.FromRow {
			w = ph.W
		} else {
			break
		}
	}
	return w
}

// MeanWait returns the row-weighted average waiting time of the schedule;
// it is the w used by analytic bounds and by the optimizer's initial
// annotations.
func (s *Source) MeanWait() time.Duration {
	if s.nrows == 0 {
		return 0
	}
	var total float64
	for i := 0; i < len(s.phases); i++ {
		from := s.phases[i].FromRow
		to := s.nrows
		if i+1 < len(s.phases) {
			to = s.phases[i+1].FromRow
		}
		if to > s.nrows {
			to = s.nrows
		}
		if to > from {
			total += float64(to-from) * s.phases[i].W.Seconds()
		}
	}
	return time.Duration(total / float64(s.nrows) * float64(time.Second))
}

// ExpectedRetrieval returns the expected total time to produce and deliver
// every tuple, ignoring window-protocol suspensions: the n_p * w_p term of
// the paper's lower bound.
func (s *Source) ExpectedRetrieval() time.Duration {
	wait := time.Duration(float64(s.nrows) * s.MeanWait().Seconds() * float64(time.Second))
	return s.initialDelay + wait + s.netTime
}

// Resume implements comm.Producer: a pop at virtual time now freed a window
// slot, so production may continue.
func (s *Source) Resume(now time.Duration) {
	s.q.Settle()
	s.pump(now)
}

// ResumeN is the bulk replay a comm queue defers credits for: the consumer freed one window slot
// at each of the given instants, in order. Each floor is replayed against
// the window as it stood at its own credit — the later credits have already
// left the queue's debt, so they are counted back in as owed — and the whole
// run reaches the queue in one push.
func (s *Source) ResumeN(floors []time.Duration) {
	for i, floor := range floors {
		s.produce(floor, len(floors)-1-i)
	}
	s.flush()
}

// pump advances the production simulation until the window protocol blocks
// it or the rows are exhausted, and delivers what it produced. floor is the
// earliest instant the currently held tuple may be sent (the pop time when
// resuming from suspension).
func (s *Source) pump(floor time.Duration) {
	s.produce(floor, 0)
	s.flush()
}

// produce stages every production the window allows from floor on. owed is
// the number of window slots that look free in the queue but were not yet
// at this floor's instant (credits granted later, replayed after this one).
//
// Productions are staged locally and handed to the queue by flush: a push
// has no observable effect besides buffer state (no clock, no RNG), so
// deferring the buffer writes is exact. Staged tuples count against the
// window while staging, so the source suspends exactly where the window
// fills.
func (s *Source) produce(floor time.Duration, owed int) {
	if s.dead || s.detached {
		return
	}
	for s.next < s.nrows {
		// Skip fault clauses whose boundary has passed (burst start rows are
		// consumed here: bursts act through effectiveWait, not the cursor).
		for s.fidx < len(s.faults) && (s.faults[s.fidx].Row < s.next ||
			(s.faults[s.fidx].Row == s.next && s.faults[s.fidx].Kind == fault.Burst)) {
			s.fidx++
		}
		if s.fidx < len(s.faults) && s.faults[s.fidx].Row == s.next && s.faults[s.fidx].Kind == fault.Kill {
			// Permanent death: this row and everything after it are never
			// produced. The wrapper fails right after its last delivered
			// tuple; that send instant dates the outage.
			s.fidx++
			s.dead = true
			s.outages = append(s.outages, fault.Outage{From: s.startAt, Permanent: true})
			break
		}
		if !s.producing {
			if s.shared != nil {
				// Tap on a shared stream: the physical wrapper produced this
				// row at the schedule's instant (possibly before this query
				// attached — the prefix replays from the stream's cache, never
				// earlier than the attach time recorded in startAt).
				s.readyAt = s.shared.sendAt[s.next]
			} else {
				w := s.effectiveWait(s.next)
				d := s.rng.UniformDelay(w)
				if s.next == s.firstRow {
					d += s.initialDelay
				}
				if s.fidx < len(s.faults) && s.faults[s.fidx].Row == s.next && s.faults[s.fidx].Kind == fault.Stall {
					d += s.faults[s.fidx].Down
					s.fidx++
				}
				s.readyAt = s.startAt + d
			}
			s.producing = true
		}
		if s.q.Len()+s.q.Debt()+len(s.stageAt)+owed == s.q.Capacity() {
			s.blocked = true
			break
		}
		send := s.readyAt
		if floor > send {
			send = floor
		}
		if s.fidx < len(s.faults) && s.faults[s.fidx].Row == s.next && s.faults[s.fidx].Kind == fault.Disconnect {
			// The connection drops just as this row would be sent and comes
			// back Down later; restart semantics additionally re-pay the
			// production time of the already delivered prefix (fresh draws
			// from the fault stream — the data is deterministic, the timing
			// is not).
			c := s.faults[s.fidx]
			s.fidx++
			down := c.Down
			if c.Restart {
				down += s.reproduceTime(s.next)
			}
			s.outages = append(s.outages, fault.Outage{From: send, To: send + down})
			send += down
		}
		// Wrapper-side selection (`col < less`). Only the pass bit is staged
		// per row — the values flush as contiguous column runs.
		s.stagePass = append(s.stagePass, s.predIdx < 0 || s.tcols[s.predIdx][s.next] < s.predLess)
		s.stageAt = append(s.stageAt, send+s.netTime)
		s.next++
		s.producing = false
		s.blocked = false
		s.startAt = send
	}
	if s.next >= s.nrows {
		s.blocked = false
	}
}

// flush hands the staged productions to the queue in one push.
func (s *Source) flush() {
	staged := len(s.stageAt)
	if staged == 0 {
		return
	}
	// The staged rows are exactly [next-staged, next): the cursor advances
	// one row per staged slot and every break in produce happens before
	// staging. Each live column therefore pushes as one sub-slice of the
	// shared transpose — no per-value staging copy.
	start := s.next - staged
	for j, c := range s.keep {
		s.colViews[j] = s.tcols[c][start:s.next]
	}
	s.q.PushColsN(s.colViews, s.stagePass, s.stageAt)
	s.stagePass = s.stagePass[:0]
	s.stageAt = s.stageAt[:0]
}

// effectiveWait is the mean waiting time the pump draws row's delay with:
// the advertised schedule with burst clauses applied. Analytic accessors
// (MeanWait, ExpectedRetrieval) intentionally keep the advertised schedule —
// bounds are computed from the advertised behaviour, faults are the
// surprise.
func (s *Source) effectiveWait(row int) time.Duration { return waitIn(s.sched, row) }

// spliceBursts compiles a fault schedule's burst clauses into phases: a row
// in a burst waits the first such burst's mean wait, any other row its
// phase's. Both are piecewise constant, so the result needs a phase only at
// their boundaries inside [0, nrows). Without bursts it returns phases.
func spliceBursts(phases []Phase, faults []fault.Clause, nrows int) []Phase {
	var rows []int
	for _, c := range faults {
		if c.Kind == fault.Burst {
			rows = append(rows, c.Row, c.Row+c.Rows)
		}
	}
	if rows == nil {
		return phases
	}
	for _, ph := range phases {
		rows = append(rows, ph.FromRow)
	}
	slices.Sort(rows)
	sched := make([]Phase, 0, len(rows))
	for _, r := range slices.Compact(rows) {
		if r < 0 || (r >= nrows && r > 0) {
			continue
		}
		w := waitIn(phases, r)
		for _, c := range faults {
			if c.Kind == fault.Burst && r >= c.Row && r < c.Row+c.Rows {
				w = c.Wait
				break
			}
		}
		sched = append(sched, Phase{FromRow: r, W: w})
	}
	return sched
}

// reproduceTime draws the virtual time a restarted wrapper spends
// re-producing rows [0, n) it had already delivered, from the fault RNG.
func (s *Source) reproduceTime(n int) time.Duration {
	var total time.Duration
	for i := 0; i < n; i++ {
		total += s.frng.UniformDelay(s.effectiveWait(i))
	}
	return total
}
