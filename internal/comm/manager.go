package comm

import (
	"fmt"
	"sort"
	"time"
)

// Manager is the communication manager (CM) of paper §3.1: it owns the
// per-wrapper queues, keeps the delivery-rate estimates current, and detects
// significant rate changes relative to the estimates the scheduler planned
// with.
//
// The CM sits on the engine's per-batch hot loop (Observe + RateChanged run
// once per scheduling iteration, over every queue of every active query), so
// both are incremental. Observe skips a queue with nothing due after one
// compare. RateChanged keeps a per-queue verdict — "this wrapper's estimate
// deviates significantly from its planned baseline" — and re-judges only the
// queues whose estimator absorbed an arrival since the last call: a verdict
// is a function of the queue's estimate and its baseline, so it can only
// move when one of those does. A new baseline (SnapshotPlanned) or a new
// queue (Adopt) re-judges everything. The answer — the first changed wrapper
// in name order — is therefore the full scan's, by construction.
type Manager struct {
	queues  map[string]*Queue
	ordered []*Queue    // name-sorted, the CM's deterministic scan order
	names   []string    // name-sorted, parallel to ordered
	rates   []rateState // parallel to ordered

	// dirty counts the queues flagged for re-judging at the next
	// RateChanged; allDirty flags every queue at once. changed counts the
	// standing positive verdicts.
	dirty    int
	allDirty bool
	changed  int
}

// rateState is the change-detection state of one queue.
type rateState struct {
	// planned is the waiting-time estimate in force when the current
	// scheduling plan was computed; hasPlan is false for a queue adopted
	// after the last snapshot, which has no baseline to deviate from.
	planned time.Duration
	hasPlan bool
	dirty   bool // absorbed arrivals since its verdict was reached
	changed bool // the standing verdict
}

// changeFactor is the ratio beyond which a waiting-time drift is significant
// (paper: "any significant change").
const changeFactor = 2

// minObservations gates change detection until the estimator has seen
// enough arrivals to be trusted.
const minObservations = 64

// NewManager returns a CM with no queues yet.
func NewManager() *Manager {
	return &Manager{
		queues: make(map[string]*Queue),
		// One allocation covers a typical single query (Figure 5 registers
		// six wrappers); a server's many queues grow it by doubling.
		rates: make([]rateState, 0, 8),
	}
}

// Register creates (and returns) the queue for the named wrapper, keeping
// the sorted scan order current.
func (m *Manager) Register(name string, capacity int) *Queue {
	q := NewQueue(name, capacity)
	m.Adopt(q)
	return q
}

// Adopt registers a caller-supplied queue — typically one recycled from a
// run pool and freshly Reset — under its current name, keeping the sorted
// scan order current.
func (m *Manager) Adopt(q *Queue) {
	name := q.Name()
	if _, dup := m.queues[name]; dup {
		panic(fmt.Sprintf("comm: wrapper %q registered twice", name))
	}
	m.queues[name] = q
	i := sort.SearchStrings(m.names, name)
	m.names = append(m.names, "")
	copy(m.names[i+1:], m.names[i:])
	m.names[i] = name
	m.ordered = append(m.ordered, nil)
	copy(m.ordered[i+1:], m.ordered[i:])
	m.ordered[i] = q
	m.rates = append(m.rates, rateState{})
	copy(m.rates[i+1:], m.rates[i:])
	m.rates[i] = rateState{}
	m.allDirty = true
}

// Queues returns the registered queues in name-sorted order. The returned
// slice is shared; callers must not mutate it.
func (m *Manager) Queues() []*Queue { return m.ordered }

// Queue returns the queue of the named wrapper.
func (m *Manager) Queue(name string) (*Queue, bool) {
	q, ok := m.queues[name]
	return q, ok
}

// Names returns the registered wrapper names in sorted order. The returned
// slice is shared; callers must not mutate it.
func (m *Manager) Names() []string { return m.names }

// Observe refreshes every rate estimator with the arrivals visible at time
// now.
func (m *Manager) Observe(now time.Duration) {
	for i, q := range m.ordered {
		if !q.observeDue(now) || q.ObserveArrivals(now) == 0 {
			continue
		}
		if r := &m.rates[i]; !r.dirty {
			r.dirty = true
			m.dirty++
		}
	}
}

// Wait returns the CM's best current estimate of the waiting time of the
// named wrapper, falling back to fallback when too few arrivals have been
// observed.
func (m *Manager) Wait(name string, fallback time.Duration) time.Duration {
	q, ok := m.queues[name]
	if !ok {
		return fallback
	}
	if w, ok := q.EstimatedWait(); ok {
		return w
	}
	return fallback
}

// SnapshotPlanned records the estimates the scheduler is about to plan
// with; subsequent RateChanged calls compare against this baseline.
func (m *Manager) SnapshotPlanned(fallback func(name string) time.Duration) {
	for i, q := range m.ordered {
		w := fallback(m.names[i])
		if est, ok := q.EstimatedWait(); ok {
			w = est
		}
		m.rates[i].planned, m.rates[i].hasPlan = w, true
	}
	m.allDirty = true
}

// judge recomputes queue i's verdict.
func (m *Manager) judge(i int) {
	q, r := m.ordered[i], &m.rates[i]
	if r.dirty {
		r.dirty = false
		m.dirty--
	}
	cur, ok := q.EstimatedWait()
	verdict := ok && q.est.Observations() >= minObservations && r.hasPlan &&
		SignificantChange(r.planned, cur, changeFactor)
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
	if m.allDirty || m.dirty > 0 {
		for i := range m.rates {
			if m.allDirty || m.rates[i].dirty {
				m.judge(i)
			}
		}
		m.allDirty = false
	}
	if m.changed == 0 {
		return ""
	}
	for i := range m.rates {
		if m.rates[i].changed {
			return m.names[i]
		}
	}
	return ""
}
