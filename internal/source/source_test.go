package source

import (
	"errors"
	"strings"
	"testing"
	"time"

	"dqs/internal/comm"
	"dqs/internal/relation"
	"dqs/internal/sim"
)

func makeTable(t *testing.T, n int) *relation.Table {
	t.Helper()
	cat := relation.NewCatalog()
	r := cat.MustAdd("W", n, "id")
	return relation.NewGenerator(sim.NewRNG(1)).MustGenerate(r)
}

func us(n int) time.Duration { return time.Duration(n) * time.Microsecond }

// newQueue returns a queue whose slots carry every column of tab, and
// allColumns the matching pushdown — no projection, no predicate: the plain
// whole-row delivery the tests that do not study pushdown want.
func newQueue(tab *relation.Table, window int) *comm.Queue {
	q := comm.NewQueue(tab.Rel.Name, window)
	q.SetColumnar(tab.Rel.Schema.Width())
	return q
}

func allColumns(tab *relation.Table) Option {
	keep := make([]int, tab.Rel.Schema.Width())
	for c := range keep {
		keep[c] = c
	}
	return WithColumnar(tab.Columns(), keep, -1, 0)
}

// popN bulk-pops up to max arrived slots of q without crediting them.
func popN(q *comm.Queue, now time.Duration, max int) int {
	return q.PopColsN(now, relation.NewBatch(q.Width()), make([]bool, max))
}

// pop consumes q's oldest tuple at now, freeing its window slot.
func pop(q *comm.Queue, now time.Duration) relation.Tuple {
	b := relation.NewBatch(q.Width())
	if q.PopColsN(now, b, make([]bool, 1)) != 1 {
		panic("pop: nothing has arrived")
	}
	q.Credit(now)
	return b.Row(0, make(relation.Tuple, q.Width()))
}

func TestSourceDeliversEverythingInOrder(t *testing.T) {
	tab := makeTable(t, 500)
	q := newQueue(tab, 32)
	src, err := New("W", tab, q, sim.NewRNG(2), us(1), allColumns(tab), WithMeanWait(us(10)))
	if err != nil {
		t.Fatal(err)
	}
	var popped int64
	now := time.Duration(0)
	var last time.Duration = -1
	for !(src.Exhausted() && q.Len() == 0) {
		at, ok := q.NextArrival()
		if !ok {
			t.Fatalf("queue empty but source not exhausted (popped %d)", popped)
		}
		if at < last {
			t.Fatalf("arrival went backwards: %v < %v", at, last)
		}
		last = at
		if at > now {
			now = at
		}
		got := pop(q, now)
		if got[0] != popped {
			t.Fatalf("tuple %d out of order: %v", popped, got)
		}
		popped++
	}
	if popped != 500 {
		t.Fatalf("delivered %d tuples, want 500", popped)
	}
}

func TestSourceWindowProtocolBlocks(t *testing.T) {
	tab := makeTable(t, 100)
	q := newQueue(tab, 8)
	src, err := New("W", tab, q, sim.NewRNG(2), 0, allColumns(tab), WithMeanWait(0))
	if err != nil {
		t.Fatal(err)
	}
	// With instantaneous production the queue fills to its window and the
	// wrapper suspends.
	if q.Len() != 8 {
		t.Fatalf("queue filled to %d, want window 8", q.Len())
	}
	if !src.Blocked() {
		t.Error("source not blocked on a full window")
	}
	pop(q, time.Second)
	if q.Len() != 8 {
		t.Errorf("pop did not let the wrapper refill (len=%d)", q.Len())
	}
}

func TestSourceResumeUsesPopTimeAsFloor(t *testing.T) {
	tab := makeTable(t, 3)
	q := newQueue(tab, 1)
	if _, err := New("W", tab, q, sim.NewRNG(2), 0, allColumns(tab), WithMeanWait(0)); err != nil {
		t.Fatal(err)
	}
	// Tuple 0 arrives at ~0 and is held; the queue has one slot.
	pop(q, 200*time.Millisecond)
	at, ok := q.NextArrival()
	if !ok {
		t.Fatal("no refill after pop")
	}
	if at < 200*time.Millisecond {
		t.Errorf("refilled tuple arrived at %v, before the pop that freed its slot", at)
	}
}

func TestSourceMeanWaitStatistics(t *testing.T) {
	const n = 20000
	tab := makeTable(t, n)
	q := newQueue(tab, n) // no backpressure
	src, err := New("W", tab, q, sim.NewRNG(5), 0, allColumns(tab), WithMeanWait(us(50)))
	if err != nil {
		t.Fatal(err)
	}
	if !src.Exhausted() {
		t.Fatal("unbounded queue should absorb everything eagerly")
	}
	// Last arrival ≈ n * w.
	var lastArrival time.Duration
	now := time.Duration(1 << 62)
	for q.Len() > 0 {
		at, _ := q.NextArrival()
		lastArrival = at
		pop(q, now)
	}
	want := time.Duration(n) * us(50)
	if lastArrival < want*9/10 || lastArrival > want*11/10 {
		t.Errorf("total delivery %v deviates from n*w=%v by >10%%", lastArrival, want)
	}
}

func TestSourceInitialDelay(t *testing.T) {
	tab := makeTable(t, 5)
	q := newQueue(tab, 8)
	if _, err := New("W", tab, q, sim.NewRNG(2), 0, allColumns(tab),
		WithMeanWait(0), WithInitialDelay(3*time.Second)); err != nil {
		t.Fatal(err)
	}
	at, ok := q.NextArrival()
	if !ok || at < 3*time.Second {
		t.Errorf("first arrival %v,%v, want >= 3s", at, ok)
	}
}

func TestSourcePhases(t *testing.T) {
	tab := makeTable(t, 1000)
	q := newQueue(tab, 1000)
	src, err := New("W", tab, q, sim.NewRNG(2), 0, allColumns(tab), WithPhases(
		Phase{FromRow: 0, W: 0},
		Phase{FromRow: 500, W: us(100)},
	))
	if err != nil {
		t.Fatal(err)
	}
	if !src.Exhausted() {
		t.Fatal("not exhausted")
	}
	// Drain and find arrival times of tuples 499 and 999.
	now := time.Duration(1 << 62)
	var at499, at999 time.Duration
	for i := 0; i < 1000; i++ {
		at, _ := q.NextArrival()
		switch i {
		case 499:
			at499 = at
		case 999:
			at999 = at
		}
		pop(q, now)
	}
	if at499 > 10*time.Millisecond {
		t.Errorf("fast phase ended at %v, want ~0", at499)
	}
	slowSpan := at999 - at499
	want := 500 * us(100)
	if slowSpan < want*8/10 || slowSpan > want*12/10 {
		t.Errorf("slow phase span %v, want ≈%v", slowSpan, want)
	}
	// MeanWait is the row-weighted average: 500*0 + 500*100µs over 1000.
	if got := src.MeanWait(); got != us(50) {
		t.Errorf("MeanWait = %v, want 50µs", got)
	}
}

func TestSourceOptionValidation(t *testing.T) {
	tab := makeTable(t, 10)
	mk := func(opts ...Option) error {
		q := newQueue(tab, 4)
		_, err := New("W", tab, q, sim.NewRNG(1), 0, append(opts, allColumns(tab))...)
		return err
	}
	if err := mk(WithPhases(Phase{FromRow: 5, W: 0})); err == nil {
		t.Error("phases not starting at 0 accepted")
	}
	if err := mk(WithPhases(Phase{FromRow: 0, W: 0}, Phase{FromRow: 0, W: us(1)})); err == nil {
		t.Error("non-increasing phases accepted")
	}
	if err := mk(WithPhases(Phase{FromRow: 0, W: -us(1)})); err == nil {
		t.Error("negative waiting time accepted")
	}
	if err := mk(WithInitialDelay(-time.Second)); err == nil {
		t.Error("negative initial delay accepted")
	}
	// [0, 2w] must fit a time.Duration: one nanosecond past the bound is a
	// named error, not an Int63n panic at the first draw.
	if err := mk(WithMeanWait(sim.MaxWait + 1)); !errors.Is(err, sim.ErrWaitTooLarge) || !strings.Contains(err.Error(), `"W"`) {
		t.Errorf("waiting time past sim.MaxWait: err = %v, want ErrWaitTooLarge naming the source", err)
	}
	if _, err := NewShared("W", tab, sim.NewRNG(1), WithMeanWait(sim.MaxWait+1)); !errors.Is(err, sim.ErrWaitTooLarge) {
		t.Errorf("shared stream past sim.MaxWait: err = %v, want ErrWaitTooLarge", err)
	}
}

func TestExpectedRetrieval(t *testing.T) {
	tab := makeTable(t, 1000)
	q := newQueue(tab, 4)
	src, err := New("W", tab, q, sim.NewRNG(2), us(3), allColumns(tab),
		WithMeanWait(us(20)), WithInitialDelay(time.Second))
	if err != nil {
		t.Fatal(err)
	}
	want := time.Second + 1000*us(20) + us(3)
	if got := src.ExpectedRetrieval(); got != want {
		t.Errorf("ExpectedRetrieval = %v, want %v", got, want)
	}
}

func TestSourceDeterministicDelaysAcrossConsumptionPatterns(t *testing.T) {
	// The delay sequence must not depend on when the consumer pops: two
	// runs with different pop schedules see identical production delays
	// (arrival times may differ only through window-protocol floors).
	mkArrivals := func(popEvery int) []time.Duration {
		tab := makeTable(t, 200)
		q := newQueue(tab, 200) // wide window: no floors
		if _, err := New("W", tab, q, sim.NewRNG(77), 0, allColumns(tab), WithMeanWait(us(10))); err != nil {
			t.Fatal(err)
		}
		var out []time.Duration
		now := time.Duration(1 << 62)
		i := 0
		for q.Len() > 0 {
			at, _ := q.NextArrival()
			out = append(out, at)
			i++
			_ = popEvery
			pop(q, now)
		}
		return out
	}
	a, b := mkArrivals(1), mkArrivals(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("arrival %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}
