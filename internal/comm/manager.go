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
// once per scheduling iteration, over every queue of every active query).
// Observe skips a queue with nothing due after one compare, and judges a
// queue when it feeds it: its verdict — "this wrapper's estimate deviates
// significantly from its planned baseline" — is a function of the queue's
// estimate and its baseline, so it can only move when one of those does.
// A new baseline (SnapshotPlanned) clears every verdict, and a new queue
// (Adopt) has none. RateChanged only reads the standing verdicts, so its
// answer — the first changed wrapper in name order — is the full scan's.
type Manager struct {
	ordered []*Queue // name-sorted, the CM's deterministic scan order
	changed int      // standing positive verdicts
}

// rateState is the change-detection state of one queue.
type rateState struct {
	// planned is the waiting-time estimate in force when the current
	// scheduling plan was computed; hasPlan is false for a queue adopted
	// after the last snapshot, which has no baseline to deviate from.
	planned time.Duration
	hasPlan bool
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

// minObservations gates change detection until the estimator has seen
// enough arrivals to be trusted.
const minObservations = 64

// NewManager returns a CM with no queues yet.
func NewManager() *Manager {
	// One allocation covers a typical single query (Figure 5 runs six
	// wrappers); a server's many queues grow it by doubling.
	return &Manager{ordered: make([]*Queue, 0, 8)}
}

// byName orders the scan by wrapper name.
func byName(q *Queue, name string) int { return strings.Compare(q.name, name) }

// Adopt registers a caller-supplied queue — typically one recycled from a
// run pool and freshly Reset — under its current name, with no baseline and
// no verdict, keeping the sorted scan order current.
func (m *Manager) Adopt(q *Queue) {
	i, dup := slices.BinarySearchFunc(m.ordered, q.name, byName)
	if dup {
		panic(fmt.Sprintf("comm: wrapper %q registered twice", q.name))
	}
	q.rate = rateState{}
	m.ordered = slices.Insert(m.ordered, i, q)
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
	m.ordered = slices.Delete(m.ordered, i, i+1)
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

// Observe refreshes every rate estimator with the arrivals visible at time
// now, and judges each queue it fed.
func (m *Manager) Observe(now time.Duration) {
	for _, q := range m.ordered {
		if q.observeDue(now) && q.ObserveArrivals(now) > 0 {
			m.judge(q)
		}
	}
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
		q.rate = rateState{planned: w, hasPlan: true}
	}
	m.changed = 0
}

// judge recomputes q's verdict.
func (m *Manager) judge(q *Queue) {
	r := &q.rate
	cur, ok := q.EstimatedWait()
	verdict := ok && q.Observations() >= minObservations && r.hasPlan &&
		significantChange(r.planned, cur)
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
