// Package comm implements the mediator side of the wrapper communication
// protocol: one bounded tuple queue per wrapper (the "window protocol" of
// paper §2.1, after DB2/MVS), plus the communication manager that estimates
// per-wrapper delivery rates and signals significant changes to the engine.
package comm

import (
	"fmt"
	"math"
	"time"

	"dqs/internal/relation"
)

// Producer is the upstream side of a queue: the simulated wrapper. When the
// consumer credits a slot of a full window, the freed slot un-suspends the
// wrapper, which may then send more tuples; Resume gives it the opportunity,
// telling it the virtual time of the credit and how far production may be
// simulated.
type Producer interface {
	Resume(now time.Duration)
}

// bulkProducer is a Producer that can replay a whole run of credits at once.
// A queue whose producer implements it defers production: Credit only
// records its instant, and the run of recorded instants is handed over in
// one ResumeN when the queue settles (see Queue.Settle). ResumeN(floors)
// must leave the producer and the queue exactly as Resume(floors[0]),
// Resume(floors[1]), ... would have, each seeing the window as it stood at
// its own credit: when floor i is replayed the later len(floors)-1-i credits
// have already left the queue's debt but must still count against the
// window. A producer offering Resume only is resumed eagerly, once per
// credit.
type bulkProducer interface {
	Producer
	ResumeN(floors []time.Duration)
}

// Queue is the bounded arrival buffer of one wrapper. Slots carry their
// virtual arrival timestamps; the consumer only sees slots whose arrival is
// not in its future. When the queue is full the wrapper is suspended
// (window protocol) until the consumer frees a slot.
//
// The ring is columnar: a slot stores the flat values of the projected live
// columns (cols[c][slot]) plus a pushdown pass bit, in arrays parallel to the
// arrivals, so bulk transfers (PushColsN, PopColsN, ObserveArrivals) move
// contiguous segments with copy. A slot whose pass bit is false was filtered
// by the wrapper-side predicate: its window slot, arrival timestamp and
// estimator feed are all real — scheduling and flow control are defined on
// pre-filter arrivals — but its values never crossed the wire and its ring
// storage is never read.
//
// Consumption is split into two halves so that batching cannot perturb the
// simulation. PopColsN removes arrived slots from the ring wholesale but
// leaves their window slots reserved ("debt"): the producer still sees a
// full window and stays suspended, exactly as if the tuples were still
// buffered. Credit then releases one reserved slot at the virtual instant
// the consumer actually gets to that tuple, resuming the producer with that
// instant as its send floor. Refill arrival times, and therefore every
// downstream rate estimate and scheduling decision, depend only on when each
// tuple is processed, never on how many were popped together.
//
// The rate estimator sees arrivals in push order through one feed cursor.
// Pops and unpops move the head, not the cursor, so a tuple given back is
// never fed twice, one popped before it was observed is passed over, and
// the feed never goes backwards.
type Queue struct {
	// The fields every Available call and feed touches come first, so that
	// they share the struct's first two cache lines.
	arrivals []time.Duration
	head     int
	size     int
	capacity int

	// debt counts popped slots whose window slots have not been released by
	// Credit yet. Their ring slots — the debt positions immediately before
	// head — keep their contents, so a borrowed view reads them and UnpopN
	// can restore the tail of a batch the consumer could not process.
	debt int
	// rest counts the slots the last PopView left at the ring's end.
	rest int

	// avail and replays count Available calls and Settle replays since the
	// queue was built or Reset (see Work).
	avail, replays int64

	// arrived caches the number of leading buffered tuples whose arrival is
	// <= arrivedAt, so the hot Available path is O(1) amortized: the engine
	// calls it with a monotonically advancing clock, and the cache only has
	// to absorb each arrival once. The exact invariant — every buffered
	// tuple beyond index arrived has arrival > arrivedAt — is maintained by
	// the pushes, pops and Available together.
	arrived   int
	arrivedAt time.Duration

	// Deferred production. pend holds the instants of the credits whose
	// refills have not been simulated yet, in credit order, and bulk is the
	// producer's ResumeN form (nil for a Resume-only producer, which is
	// resumed eagerly). Every pending credit stands for a free window slot,
	// so pend never outgrows the window and is allocated once at that size.
	//
	// Deferral is exact because arrivals are monotone: every refill a
	// pending credit will produce arrives no earlier than the newest buffered
	// tuple. While that tuple is still in the reader's future, no time-based
	// read (Available, NextArrival, ObserveArrivals) can see a refill, so
	// the reads settle only when the buffer is empty or has fully arrived.
	// Everything that could otherwise tell the difference — Len, Full,
	// SetProducer, ClearProducer and the producer's own state accessors —
	// settles first.
	pend []time.Duration

	// totalPopped and fed count tuples from the queue's first push, so
	// buffered slot i is tuple totalPopped+i. fed is the feed cursor: the
	// estimator has passed every arrival before it and none after it.
	totalPopped int64
	fed         int64

	// cm is the CM holding the queue (nil until Adopt and after Drop), and
	// slot its position in cm's scan order and due index. The queue lowers
	// its due bound wherever its next due instant can drop (see nextDue).
	cm   *Manager
	slot int

	bulk     bulkProducer
	producer Producer
	name     string
	colw     int
	cols     [][]int64
	pass     []bool
	shim     [][]int64 // PopColsN's views
	est      rateEstimator
	// rate is the CM's change-detection state of this wrapper: baseline
	// and standing verdict (see Manager).
	rate rateState
}

// NewQueue creates a queue with room for capacity tuples. Its slots carry no
// columns until SetColumnar gives them a width.
func NewQueue(name string, capacity int) *Queue {
	if capacity <= 0 {
		panic(fmt.Sprintf("comm: queue %q: capacity must be positive, got %d", name, capacity))
	}
	return &Queue{
		name:     name,
		capacity: capacity,
		pass:     make([]bool, capacity),
		arrivals: make([]time.Duration, capacity),
	}
}

// Name returns the wrapper name this queue buffers for.
func (q *Queue) Name() string { return q.name }

// SetProducer attaches the wrapper that fills this queue. Credits already
// granted are settled with the outgoing producer first.
func (q *Queue) SetProducer(p Producer) {
	q.Settle()
	q.producer = p
	q.bulk, _ = p.(bulkProducer)
}

// ClearProducer detaches the queue's producer: credits stop resuming it. A
// query's runtime uses this when the query completes or is cancelled, so
// late credits on its queues pump nothing. Credits granted before the
// detach still produce.
func (q *Queue) ClearProducer() {
	q.Settle()
	q.producer, q.bulk = nil, nil
}

// Settle simulates the production owed to every credit recorded since the
// last settle, handing the producer the whole run of credit instants at
// once. It is always safe to call — it only brings the buffer to the state
// an eager per-credit resume would have reached already — and a no-op when
// nothing is pending.
func (q *Queue) Settle() {
	if len(q.pend) > 0 {
		q.replay()
	}
}

// replay is Settle's slow half, kept out of line so the nothing-pending
// check inlines into every caller.
//
//go:noinline
func (q *Queue) replay() {
	q.replays++
	floors := q.pend
	q.pend = q.pend[:0]
	q.bulk.ResumeN(floors)
}

// Capacity returns the queue size in tuples.
func (q *Queue) Capacity() int { return q.capacity }

// Len returns the number of buffered tuples (including ones whose arrival
// time is still in the consumer's future).
func (q *Queue) Len() int {
	q.Settle()
	return q.size
}

// Empty reports whether no tuple is buffered. Unlike Len it settles deferred
// production only when the answer depends on it: refills can only add
// tuples, so a non-empty buffer answers at once.
func (q *Queue) Empty() bool {
	if q.size > 0 {
		return false
	}
	q.Settle()
	return q.size == 0
}

// Debt returns the number of popped tuples whose window slots are still
// reserved (popped but not yet Credit'ed).
func (q *Queue) Debt() int { return q.debt }

// Deferred returns the number of credits whose refills have not been
// simulated yet — what the next Settle will hand the producer. Always zero
// under a Resume-only producer.
func (q *Queue) Deferred() int { return len(q.pend) }

// Full reports whether the window is exhausted. Debt slots count against
// the window: a tuple that has been bulk-popped but not yet credited still
// occupies its slot from the producer's point of view.
func (q *Queue) Full() bool {
	q.Settle()
	return q.size+q.debt == q.capacity
}

// Reset returns the queue to its freshly constructed state under a new
// wrapper name, keeping the ring storage, so pooled runs reuse it without
// reallocating.
func (q *Queue) Reset(name string) {
	q.name = name
	q.colw = 0
	q.head = 0
	q.size = 0
	q.debt = 0
	q.rest = 0
	q.arrived = 0
	q.arrivedAt = 0
	q.producer, q.bulk = nil, nil
	q.pend = q.pend[:0]
	q.totalPopped, q.fed = 0, 0
	q.est = rateEstimator{}
	q.cm = nil
	q.avail, q.replays = 0, 0
}

// SetColumnar sets an empty queue's live-column count: the projected columns
// that actually cross the wire. Width 0 is legal when every referenced column
// is filtered away by projection.
func (q *Queue) SetColumnar(width int) {
	if q.size != 0 || q.debt != 0 {
		panic(fmt.Sprintf("comm: queue %q: SetColumnar on non-empty queue", q.name))
	}
	if width < 0 {
		panic(fmt.Sprintf("comm: queue %q: negative columnar width %d", q.name, width))
	}
	q.colw = width
	for len(q.cols) < width {
		q.cols = append(q.cols, nil)
	}
	for c := 0; c < width; c++ {
		if cap(q.cols[c]) < q.capacity {
			q.cols[c] = make([]int64, q.capacity)
		} else {
			q.cols[c] = q.cols[c][:q.capacity]
		}
	}
}

// ColumnCapacity returns the widest live-column count SetColumnar can set
// without allocating ring storage.
func (q *Queue) ColumnCapacity() int { return len(q.cols) }

// Width returns the live-column count of the ring's slots.
func (q *Queue) Width() int { return q.colw }

// idx maps a head-relative offset to a physical ring index. The capacity
// is not a power of two, so the ring index wraps with a branch instead of a
// modulo: head and i are both < capacity, bounding head+i below 2*capacity.
func (q *Queue) idx(i int) int {
	idx := q.head + i
	if idx >= q.capacity {
		idx -= q.capacity
	}
	return idx
}

// PushColsN appends a run of slots with monotonically non-decreasing arrival
// times. Their values arrive as flat per-column segments (vals[c][i] is
// column c of slot i) plus a pushdown pass mask. Filtered slots (pass[i]
// false) occupy a real window slot with a real arrival — flow control and
// rate estimation are defined on pre-filter arrivals — but their positions
// in vals are unspecified and are never read. It panics if the run does not
// fit the window or arrivals go backwards: both indicate a wrapper
// simulation bug.
func (q *Queue) PushColsN(vals [][]int64, pass []bool, arrivals []time.Duration) {
	n := len(arrivals)
	if len(pass) != n {
		panic(fmt.Sprintf("comm: queue %q: PushColsN length mismatch: %d pass bits, %d arrivals", q.name, len(pass), n))
	}
	if len(vals) != q.colw {
		panic(fmt.Sprintf("comm: queue %q: PushColsN width mismatch: %d columns, ring has %d", q.name, len(vals), q.colw))
	}
	for c, col := range vals {
		if len(col) != n {
			panic(fmt.Sprintf("comm: queue %q: PushColsN column %d has %d values, want %d", q.name, c, len(col), n))
		}
	}
	if n == 0 {
		return
	}
	start := q.pushPrep(arrivals)
	first := n
	if start+first > q.capacity {
		first = q.capacity - start
	}
	for c, col := range vals {
		copy(q.cols[c][start:], col[:first])
	}
	copy(q.pass[start:], pass[:first])
	copy(q.arrivals[start:], arrivals[:first])
	if first < n {
		for c, col := range vals {
			copy(q.cols[c], col[first:])
		}
		copy(q.pass, pass[first:])
		copy(q.arrivals, arrivals[first:])
	}
	q.pushCommit(arrivals)
}

// pushPrep validates window room and arrival monotonicity for a bulk push of
// len(arrivals) slots and returns the physical ring index the run starts at.
func (q *Queue) pushPrep(arrivals []time.Duration) int {
	if q.size+q.debt+len(arrivals) > q.capacity {
		panic(fmt.Sprintf("comm: queue %q: push on full queue", q.name))
	}
	last := arrivals[0]
	if q.size > 0 {
		last = q.arrivals[q.idx(q.size-1)]
	}
	for _, at := range arrivals {
		if at < last {
			panic(fmt.Sprintf("comm: queue %q: arrival went backwards: %v < %v", q.name, at, last))
		}
		last = at
	}
	return q.idx(q.size)
}

// pushCommit advances the arrived-prefix cache over the appended run and
// publishes the new size: when every older tuple had already arrived by
// arrivedAt, the leading new ones that have too are counted immediately —
// otherwise a later Available(now < arrivedAt) would miss them. It lowers
// the CM's due bound when the run's first slot is the next one to feed.
func (q *Queue) pushCommit(arrivals []time.Duration) {
	if q.cm != nil && q.feedFrom() == q.size {
		q.cm.lower(q.slot, arrivals[0])
	}
	if q.arrived == q.size {
		for _, at := range arrivals {
			if at > q.arrivedAt {
				break
			}
			q.arrived++
		}
	}
	q.size += len(arrivals)
}

// Available returns how many buffered tuples have arrived by time now. For
// the engine's monotonically advancing clock it is O(1) amortized: the
// cached arrived count only moves forward as new arrivals cross now. A
// query about an instant before the cache's high-water mark binary-searches
// the arrived prefix (arrivals are monotonic), so it stays exact without
// disturbing the cache.
func (q *Queue) Available(now time.Duration) int {
	q.avail++
	if len(q.pend) > 0 && (q.size == 0 || q.arrivals[q.idx(q.size-1)] <= now) {
		// Pending refills arrive no earlier than the newest buffered tuple:
		// they can only be visible at now once that tuple is.
		q.Settle()
	}
	if now < q.arrivedAt {
		lo, hi := 0, q.arrived
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if q.arrivals[q.idx(mid)] <= now {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		return lo
	}
	q.arrivedAt = now
	for q.arrived < q.size && q.arrivals[q.idx(q.arrived)] <= now {
		q.arrived++
	}
	return q.arrived
}

// NextArrival returns the arrival time of the oldest buffered tuple, or
// false if the queue is empty (once deferred production is settled). Because
// producers pump eagerly until the window protocol suspends them, an empty
// queue means the producer has nothing more to give right now: either it is
// exhausted or, under fault injection, it is dead. The mediator's fault layer
// relies on this contract to tell silence (empty queue, dead source) apart
// from an in-progress disconnect, whose outage-shifted arrivals are already
// buffered with future timestamps.
func (q *Queue) NextArrival() (time.Duration, bool) {
	if q.Empty() {
		return 0, false
	}
	return q.arrivals[q.head], true
}

// PopView removes up to max arrived slots, never past the ring's end, and
// lends them in place: one view per live column in cols (its storage
// reused), and their pass bits. They stay debt until credited one by one,
// and a debt slot is never overwritten. A pop cut at the ring's end leaves
// the rest to the next pop, which takes it without reading availability.
func (q *Queue) PopView(now time.Duration, max int, cols [][]int64) ([][]int64, []bool) {
	n := q.rest
	if n == 0 {
		n = q.Available(now)
	}
	n = min(n, max)
	first := min(n, q.capacity-q.head)
	q.rest, n = n-first, first
	cols = cols[:0]
	if n <= 0 {
		return cols, nil
	}
	lo, hi := q.head, q.head+n
	for _, col := range q.cols[:q.colw] {
		cols = append(cols, col[lo:hi:hi])
	}
	q.head = q.idx(n)
	q.size -= n
	q.debt += n
	q.arrived -= n // Available guarantees arrived >= n
	q.totalPopped += int64(n)
	return cols, q.pass[lo:hi:hi]
}

// PopColsN copies up to len(pass) arrived slots, across the ring's end, into
// dst (reset only when any move) and pass, and returns how many. It stays
// only for bench/ and the tests — remove with the next [benchmark] PR.
func (q *Queue) PopColsN(now time.Duration, dst *relation.Batch, pass []bool) int {
	q.rest = 0
	n := 0
	for n == 0 || q.rest > 0 {
		cols, p := q.PopView(now, len(pass)-n, q.shim)
		if len(p) == 0 {
			break
		}
		if n == 0 {
			dst.Reset(q.colw)
		}
		for c, v := range dst.Extend(len(p)) {
			copy(v, cols[c])
		}
		n += copy(pass[n:], p)
		q.shim = cols
	}
	return n
}

// Credit releases the oldest debt slot at virtual time now: the producer
// sees the slot free itself at the instant the consumer reached the tuple,
// so refill send floors — and every arrival time derived from them — do not
// depend on the batch size. A bulkProducer is not resumed here: the instant
// is recorded and the refill simulated when the queue next settles.
func (q *Queue) Credit(now time.Duration) {
	if q.debt == 0 {
		panic(fmt.Sprintf("comm: queue %q: credit without debt", q.name))
	}
	q.debt--
	switch {
	case q.bulk != nil:
		if q.pend == nil {
			q.pend = make([]time.Duration, 0, q.capacity)
		}
		if q.cm != nil && q.feedFrom() == q.size {
			// Everything buffered is fed: the refill may be observable now.
			q.cm.lower(q.slot, dueNow)
		}
		q.pend = append(q.pend, now)
	case q.producer != nil:
		q.producer.Resume(now)
	}
}

// UnpopN returns the newest n uncredited tuples to the buffer, undoing the
// tail of a popped batch the consumer could not process (e.g. a memory
// overflow mid-batch). Their ring slots were left intact by the pop, so this
// is pure index arithmetic.
func (q *Queue) UnpopN(n int) {
	if n == 0 {
		return
	}
	if n > q.debt {
		panic(fmt.Sprintf("comm: queue %q: unpop %d exceeds debt %d", q.name, n, q.debt))
	}
	q.head -= n
	if q.head < 0 {
		q.head += q.capacity
	}
	q.size += n
	q.debt -= n
	q.rest = 0
	q.arrived += n // popped tuples had arrived; restoring keeps the prefix exact
	q.totalPopped -= int64(n)
	if q.cm != nil {
		// The feed cursor may lie among the restored tuples, which have
		// arrived.
		q.cm.lower(q.slot, q.nextDue())
	}
}

// ObserveArrivals feeds the rate estimator every buffered arrival from
// the feed cursor up to the arrived prefix at now, returning how many were
// fed. The communication manager calls this as the engine's clock
// advances, so estimation is causal: the CM never peeks at future
// arrivals. The unseen arrived run is handed to the estimator as whole
// ring segments.
func (q *Queue) ObserveArrivals(now time.Duration) int {
	n := q.Available(now)
	from := q.feedFrom()
	if n <= from {
		return 0
	}
	lo, hi := q.idx(from), q.idx(n)
	if lo < hi {
		q.est.observe(q.arrivals[lo:hi])
	} else {
		q.est.observe(q.arrivals[lo:q.capacity])
		q.est.observe(q.arrivals[:hi])
	}
	q.fed = q.totalPopped + int64(n)
	return n - from
}

// feedFrom is the buffer position of the feed cursor: the oldest buffered
// slot the estimator has not passed, 0 when the cursor lies among the
// popped tuples.
func (q *Queue) feedFrom() int { return int(max(q.fed-q.totalPopped, 0)) }

// Sentinels of nextDue: a queue due at any instant, and one that nothing
// but a push, a credit or an unpop can make due.
const (
	dueNow time.Duration = math.MinInt64
	never  time.Duration = math.MaxInt64
)

// nextDue returns the first instant at which ObserveArrivals could feed the
// estimator: the arrival of the buffered slot at the feed cursor, or, when
// everything buffered is fed, dueNow if deferred production may deliver
// more and never if not. Arrivals are monotone, so nothing is due before
// it. It only falls when a push lands at the feed cursor, a deferred
// credit finds everything buffered fed, or an unpop restores popped slots
// ahead of the cursor — the three places that lower the CM's due bound.
// Pops, feeds and a settle's emptying of the credits only raise it.
func (q *Queue) nextDue() time.Duration {
	if from := q.feedFrom(); from < q.size {
		return q.arrivals[q.idx(from)]
	}
	if len(q.pend) > 0 {
		return dueNow
	}
	return never
}

// EstimatedWait returns the current estimate of the mean inter-arrival time
// (the paper's waiting time w_p) and whether enough observations exist.
func (q *Queue) EstimatedWait() (time.Duration, bool) { return q.est.wait() }

// Observations returns the number of arrivals fed to the rate estimator.
func (q *Queue) Observations() int64 { return q.est.n }

// TotalPopped returns the number of tuples consumed from this queue.
func (q *Queue) TotalPopped() int64 { return q.totalPopped }

// ewmaAlpha is the estimator's smoothing factor: each new gap moves the
// mean by 5% of its distance from it.
const ewmaAlpha = 0.05

// rateEstimator tracks a smoothed mean inter-arrival time with an
// exponentially weighted moving average.
type rateEstimator struct {
	last time.Duration
	mean float64 // seconds
	n    int64
}

// observe records a run of arrival instants.
func (e *rateEstimator) observe(at []time.Duration) {
	for _, a := range at {
		if e.n > 0 {
			// Sub-second gaps — all but initial delays and outages — skip
			// Duration.Seconds' two integer divisions: for 0 <= d < 1s it
			// computes 0 + float64(d)/1e9, which is this quotient bit for
			// bit.
			d := a - e.last
			var gap float64
			switch {
			case d < 0:
				gap = 0
			case d < time.Second:
				gap = float64(d) / 1e9
			default:
				gap = d.Seconds()
			}
			if e.n == 1 {
				e.mean = gap
			} else {
				e.mean = ewmaAlpha*gap + (1-ewmaAlpha)*e.mean
			}
		}
		e.last = a
		e.n++
	}
}

// wait returns the smoothed inter-arrival time. The boolean is false until
// at least two arrivals (one gap) have been observed.
func (e *rateEstimator) wait() (time.Duration, bool) {
	if e.n < 2 {
		return 0, false
	}
	return time.Duration(e.mean * float64(time.Second)), true
}
