package comm

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"time"
)

// Manager is the communication manager (CM) of paper §3.1: it holds the
// live queries' wrapper queues (adopted at attach, dropped when the query
// completes or is cancelled), keeps their delivery-rate estimates current,
// and detects significant rate changes relative to the estimates the
// scheduler planned with.
//
// The CM sits on the engine's per-batch hot loop (Observe + RateChanged run
// once per scheduling iteration), so an iteration costs what changed, not
// how many queues there are. Its due index holds, beside each queue, a lower
// bound on the queue's next due instant (see Queue.nextDue), lowered by the
// queue itself wherever that instant can drop, and the least of them: an
// Observe before that instant is one compare, and otherwise it visits only
// the queues whose bound has passed, making each bound exact. It judges a
// queue when it feeds it: its verdict — "this wrapper's estimate deviates
// significantly from its planned baseline" — is a function of the queue's
// estimate and its baseline, so it can only move when one of those does,
// and it is two integer compares against the baseline's verdict band (see
// band). A new baseline (SnapshotPlanned) clears every verdict, and a new
// queue (Adopt) has none. RateChanged only reads the standing verdicts, so
// its answer — the first changed wrapper in name order — is the full
// scan's.
type Manager struct {
	ordered []*Queue // name-sorted, the CM's deterministic scan order
	// due[i] is a lower bound on ordered[i]'s next due instant, and next a
	// lower bound on them all: the due index.
	due     []time.Duration
	next    time.Duration
	changed int // standing positive verdicts
	// work holds the CM's own counters and the queue counters of the queues
	// it has dropped.
	work Work
}

// Work counts what the CM and its queues did: exact integers, filled where
// the work happens, so that a change to the engine's loop can be weighed
// without a host clock.
type Work struct {
	Observes  int64 // Observe calls
	Visits    int64 // queues an Observe looked at
	Due       int64 // visits that found the queue due
	Judges    int64 // verdicts recomputed
	Available int64 // Queue.Available calls, the pops' and feeds' included
	Replays   int64 // Settle replays of deferred production
}

// rateState is the change-detection state of one queue.
type rateState struct {
	// planned is the waiting-time estimate in force when the current
	// scheduling plan was computed; hasPlan is false for a queue adopted
	// after the last snapshot, which has no baseline to deviate from.
	planned time.Duration
	hasPlan bool
	// lo and hi bound planned's verdict band: the estimates that
	// significantChange does not tell apart from planned (see band).
	lo, hi  time.Duration
	changed bool // the standing verdict
}

// changeFactor is the ratio beyond which a waiting-time drift is significant
// (paper: "any significant change").
const changeFactor = 2

// significantChange reports whether two waiting-time estimates differ by
// more than changeFactor (either direction). Zero estimates are treated as
// equal to avoid division blowups on instantaneous sources.
func significantChange(old, new time.Duration) bool {
	a, b := old.Seconds(), new.Seconds()
	if a == 0 && b == 0 {
		return false
	}
	if a == 0 || b == 0 {
		return true
	}
	r := a / b
	if r < 1 {
		r = 1 / r
	}
	return r > changeFactor && math.Abs(a-b) > 1e-9
}

// band returns the closed range [lo, hi] of non-negative estimates that
// significantChange(planned, ·) does not tell apart from a non-negative
// baseline planned, so that judging an estimate is two integer compares.
//
// The range is exact. Over estimates above planned the predicate is
// monotone: Duration.Seconds is non-decreasing, and a/b falls while |a-b|
// grows as b rises, under IEEE rounding too. Below planned it is monotone
// the other way, and 0 is significant against any positive baseline. So
// each edge is where the predicate first holds, walking away from planned.
// The walk starts at the closed form — planned×changeFactor above,
// planned/changeFactor below — from which rounding moves the edge by no
// more than a few units of the estimates' float resolution.
func band(planned time.Duration) (lo, hi time.Duration) {
	if planned <= 0 {
		return planned, planned
	}
	same := func(d time.Duration) bool { return !significantChange(planned, d) }
	hi = planned + min(planned*(changeFactor-1), math.MaxInt64-planned)
	for !same(hi) {
		hi--
	}
	for hi < math.MaxInt64 && same(hi+1) {
		hi++
	}
	lo = planned / changeFactor
	for !same(lo) {
		lo++
	}
	for lo > 1 && same(lo-1) {
		lo--
	}
	return lo, hi
}

// minObservations gates change detection until the estimator has seen
// enough arrivals to be trusted.
const minObservations = 64

// NewManager returns a CM with no queues yet.
func NewManager() *Manager {
	// One allocation each covers a typical single query (Figure 5 runs six
	// wrappers); a server's many queues grow them by doubling.
	return &Manager{ordered: make([]*Queue, 0, 8), due: make([]time.Duration, 0, 8), next: never}
}

// Reset empties the CM for reuse by a new mediator, keeping its storage
// (its grown scan order and due index), its queues forgotten.
func (m *Manager) Reset() {
	clear(m.ordered)
	*m = Manager{ordered: m.ordered[:0], due: m.due[:0], next: never}
}

// byName orders the scan by wrapper name.
func byName(q *Queue, name string) int { return strings.Compare(q.name, name) }

// Adopt registers a caller-supplied queue — typically one recycled from a
// run pool and freshly Reset — under its current name, with no baseline and
// no verdict, keeping the sorted scan order current, and enters it in the
// due index.
func (m *Manager) Adopt(q *Queue) {
	i, dup := slices.BinarySearchFunc(m.ordered, q.name, byName)
	if dup {
		panic(fmt.Sprintf("comm: wrapper %q registered twice", q.name))
	}
	q.rate = rateState{}
	m.ordered = slices.Insert(m.ordered, i, q)
	m.due = slices.Insert(m.due, i, never)
	m.renumber(i)
	q.cm = m
	m.lower(i, q.nextDue())
}

// Drop removes a queue from the CM: its wrapper no longer feeds the
// estimates the scheduler watches, and its verdict no longer counts.
// Dropping a queue the CM does not hold is a no-op.
func (m *Manager) Drop(q *Queue) {
	i, ok := slices.BinarySearchFunc(m.ordered, q.name, byName)
	if !ok || m.ordered[i] != q {
		return
	}
	if q.rate.changed {
		m.changed--
	}
	m.work.Available += q.avail
	m.work.Replays += q.replays
	m.ordered = slices.Delete(m.ordered, i, i+1)
	m.due = slices.Delete(m.due, i, i+1)
	m.renumber(i)
	q.cm = nil
}

// renumber records, from position i on, each queue's position in the scan
// order, which is its entry in the due index.
func (m *Manager) renumber(i int) {
	for ; i < len(m.ordered); i++ {
		m.ordered[i].slot = i
	}
}

// Work returns the CM's counters, with the queue counters of every queue
// it holds or has dropped.
func (m *Manager) Work() Work {
	w := m.work
	for _, q := range m.ordered {
		w.Available += q.avail
		w.Replays += q.replays
	}
	return w
}

// Queues returns the live queues in name-sorted order. The returned slice
// is shared; callers must not mutate it.
func (m *Manager) Queues() []*Queue { return m.ordered }

// Queue returns the live queue of the named wrapper.
func (m *Manager) Queue(name string) (*Queue, bool) {
	if i, ok := slices.BinarySearchFunc(m.ordered, name, byName); ok {
		return m.ordered[i], true
	}
	return nil, false
}

// Observe refreshes the rate estimator of every queue with arrivals visible
// at time now, and judges each queue it fed. Before the due index's least
// bound it does nothing; otherwise it visits, in name order, only the
// queues whose bound has passed: a visit feeds the queue up to now, after
// which its next due instant is exact and lies after now.
func (m *Manager) Observe(now time.Duration) {
	m.work.Observes++
	if now < m.next {
		return
	}
	// A visit's replay may push onto the queue's own feed cursor, and lower
	// then records that arrival in m.next; the least bound keeps it.
	next := never
	m.next = never
	for i, at := range m.due {
		if at <= now {
			q := m.ordered[i]
			m.work.Visits++
			if q.nextDue() <= now {
				m.work.Due++
				if q.ObserveArrivals(now) > 0 {
					m.judge(q)
				}
			}
			at = q.nextDue()
			m.due[i] = at
		}
		next = min(next, at)
	}
	m.next = min(m.next, next)
}

// SnapshotPlanned records the estimates the scheduler is about to plan
// with — fallback for a wrapper with too few observed arrivals; subsequent
// verdicts compare against this baseline. Every verdict clears: a baseline
// equals its queue's estimate when there is one, and a queue without an
// estimate has no verdict.
func (m *Manager) SnapshotPlanned(fallback time.Duration) {
	for _, q := range m.ordered {
		w := fallback
		if est, ok := q.EstimatedWait(); ok {
			w = est
		}
		if r := &q.rate; !r.hasPlan || r.planned != w {
			lo, hi := band(w)
			*r = rateState{planned: w, hasPlan: true, lo: lo, hi: hi}
		} else {
			r.changed = false
		}
	}
	m.changed = 0
}

// judge recomputes q's verdict.
func (m *Manager) judge(q *Queue) {
	m.work.Judges++
	r := &q.rate
	cur, ok := q.EstimatedWait()
	verdict := ok && q.Observations() >= minObservations && r.hasPlan &&
		(cur < r.lo || cur > r.hi)
	if verdict != r.changed {
		r.changed = verdict
		if verdict {
			m.changed++
		} else {
			m.changed--
		}
	}
}

// RateChanged reports the first wrapper (in name order) whose current
// estimate deviates from the planned baseline by more than changeFactor, or
// "" if none does.
func (m *Manager) RateChanged() string {
	if m.changed == 0 {
		return ""
	}
	for _, q := range m.ordered {
		if q.rate.changed {
			return q.name
		}
	}
	return ""
}

// lower lowers the due bound of the queue in slot i to at, if that is
// earlier than the bound it holds.
func (m *Manager) lower(i int, at time.Duration) {
	if at < m.due[i] {
		m.due[i] = at
		m.next = min(m.next, at)
	}
}
