package comm

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// scanRateChanged is the reference change detection: a full scan in name
// order against baselines the test keeps itself, with no memory between
// calls.
func scanRateChanged(m *Manager, planned map[string]time.Duration) string {
	for _, q := range m.Queues() {
		name := q.Name()
		cur, ok := q.EstimatedWait()
		if !ok || q.Observations() < minObservations {
			continue
		}
		base, has := planned[name]
		if !has {
			continue
		}
		if significantChange(base, cur) {
			return name
		}
	}
	return ""
}

// TestRateChangedMatchesFullScan drives the CM through pushes at drifting
// delivery rates, pops, Observe, SnapshotPlanned, mid-run Adopt and Drop in
// arbitrary order, and requires the incremental RateChanged to give the full
// scan's answer after every step — including several calls in a row with
// nothing in between, and steps where the answer is a wrapper other than the
// one that just moved.
func TestRateChangedMatchesFullScan(t *testing.T) {
	answers := map[string]int{}
	for trial := 0; trial < 30; trial++ {
		rng := rand.New(rand.NewSource(int64(300 + trial)))
		m := NewManager()
		planned := map[string]time.Duration{}
		type feed struct {
			q    *Queue
			gap  time.Duration // current inter-arrival time of this wrapper
			last time.Duration
		}
		var feeds []*feed
		adopt := func() {
			// Names are drawn out of order, so adoption inserts mid-list.
			name := fmt.Sprintf("w%02d", rng.Intn(100))
			if _, dup := m.Queue(name); dup {
				return
			}
			q := NewQueue(name, 64)
			m.Adopt(q)
			feeds = append(feeds, &feed{q: q, gap: time.Duration(1+rng.Intn(5)) * time.Millisecond})
		}
		for i := 0; i < 3; i++ {
			adopt()
		}
		var now time.Duration
		for step := 0; step < 1500; step++ {
			f := feeds[rng.Intn(len(feeds))]
			switch op := rng.Intn(12); {
			case op <= 3: // arrivals at the wrapper's current rate, enough
				// that wrappers soon pass minObservations
				for n := 1 + rng.Intn(16); n > 0 && f.q.size+f.q.debt < f.q.capacity; n-- {
					f.last += f.gap
					push(f.q, 0, f.last)
				}
			case op == 4: // the wrapper's delivery rate drifts
				f.gap = time.Duration(1+rng.Intn(40)) * 250 * time.Microsecond
			case op == 5: // the consumer drains what has arrived
				for f.q.Available(now) > 0 {
					pop(f.q, now)
				}
			case op <= 8:
				now += time.Duration(rng.Intn(8)) * time.Millisecond
				m.Observe(now)
			case op == 9:
				fallback := time.Duration(1+rng.Intn(5)) * time.Millisecond
				m.SnapshotPlanned(fallback)
				for _, q := range m.Queues() {
					planned[q.Name()] = fallback
					if w, ok := q.EstimatedWait(); ok {
						planned[q.Name()] = w
					}
				}
			case op == 10:
				if len(feeds) < 10 {
					adopt()
				}
			default: // a query leaves, whatever its queue's verdict
				if len(feeds) > 1 {
					i := slices.Index(feeds, f)
					feeds = slices.Delete(feeds, i, i+1)
					m.Drop(f.q)
					delete(planned, f.q.Name())
				}
			}
			for rep := 0; rep < 1+rng.Intn(2); rep++ {
				got, want := m.RateChanged(), scanRateChanged(m, planned)
				if got != want {
					t.Fatalf("trial %d step %d: RateChanged = %q, full scan says %q", trial, step, got, want)
				}
				answers[got]++
			}
		}
	}
	if len(answers) < 5 || answers[""] == 0 {
		t.Errorf("the run produced too few distinct answers to mean anything: %v", answers)
	}
}

// TestManagerDrop checks that a dropped queue leaves the CM: Queue misses it
// and its standing verdict is no longer reported, while dropping a queue the
// CM does not hold changes nothing.
func TestManagerDrop(t *testing.T) {
	m := NewManager()
	a, b := NewQueue("A", 1024), NewQueue("B", 1024)
	m.Adopt(b)
	m.Adopt(a)
	if got, ok := m.Queue("A"); !ok || got != a {
		t.Error("Queue lookup failed")
	}
	if _, ok := m.Queue("C"); ok {
		t.Error("unknown queue found")
	}
	var at time.Duration
	feed := func(gap time.Duration, n int) {
		for i := 0; i < n; i++ {
			at += gap
			push(a, int64(i), at)
			push(b, int64(i), at)
		}
		m.Observe(at)
	}
	// Both wrappers slow down tenfold after the plan: both verdicts stand.
	feed(ms(1), 10)
	m.SnapshotPlanned(ms(1))
	feed(ms(10), 60)
	if got := m.RateChanged(); got != "A" {
		t.Fatalf("RateChanged = %q, want A", got)
	}

	m.Drop(NewQueue("A", 8)) // a stranger under a held name
	m.Drop(NewQueue("Z", 8))
	if got := m.Queues(); len(got) != 2 || got[0] != a || got[1] != b {
		t.Fatalf("dropping queues the CM does not hold changed its queues to %v", got)
	}
	if got := m.RateChanged(); got != "A" {
		t.Errorf("after no-op drops RateChanged = %q, want A", got)
	}

	feed(ms(10), 5) // both queues are re-judged as they are fed
	m.Drop(a)
	if _, ok := m.Queue("A"); ok {
		t.Error("dropped queue still found")
	}
	if got := m.RateChanged(); got != "B" {
		t.Errorf("after dropping A RateChanged = %q, want B", got)
	}
	m.Drop(b)
	m.Drop(b)
	if got := m.RateChanged(); got != "" || len(m.Queues()) != 0 || m.changed != 0 {
		t.Errorf("after dropping both: RateChanged = %q, %d queues, %d verdicts; want an empty CM",
			got, len(m.Queues()), m.changed)
	}
}
