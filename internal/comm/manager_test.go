package comm

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// scanRateChanged is the reference change detection: a full scan in name
// order against baselines the test keeps itself, with no memory between
// calls.
func scanRateChanged(m *Manager, planned map[string]time.Duration) string {
	for i, q := range m.Queues() {
		name := m.Names()[i]
		cur, ok := q.EstimatedWait()
		if !ok || q.Observations() < minObservations {
			continue
		}
		base, has := planned[name]
		if !has {
			continue
		}
		if SignificantChange(base, cur, changeFactor) {
			return name
		}
	}
	return ""
}

// TestRateChangedMatchesFullScan drives the CM through pushes at drifting
// delivery rates, pops, Observe, SnapshotPlanned and mid-run Adopt in
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
			switch op := rng.Intn(11); {
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
				m.SnapshotPlanned(func(string) time.Duration { return fallback })
				for _, name := range m.Names() {
					planned[name] = m.Wait(name, fallback)
				}
			default:
				if len(feeds) < 10 {
					adopt()
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
