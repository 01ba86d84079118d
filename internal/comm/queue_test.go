package comm

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"dqs/internal/relation"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

// Most tests here move one-column tuples through a width-1 queue: newQueue
// builds it, push appends one passing slot carrying v, and pop consumes the
// oldest slot at now — a one-slot PopColsN and its Credit, which frees the
// window slot and resumes the producer.
func newQueue(name string, capacity int) *Queue {
	q := NewQueue(name, capacity)
	q.SetColumnar(1)
	return q
}

func push(q *Queue, v int64, at time.Duration) {
	vals := make([][]int64, q.Width())
	for c := range vals {
		vals[c] = []int64{v}
	}
	q.PushColsN(vals, []bool{true}, []time.Duration{at})
}

func pop(q *Queue, now time.Duration) int64 {
	b := relation.NewBatch(q.Width())
	if q.PopColsN(now, b, make([]bool, 1)) != 1 {
		panic("pop: nothing has arrived")
	}
	q.Credit(now)
	if q.Width() == 0 {
		return 0
	}
	return b.Col(0)[0]
}

func TestQueuePushPopFIFO(t *testing.T) {
	q := newQueue("w", 4)
	push(q, 1, ms(1))
	push(q, 2, ms(2))
	if q.Len() != 2 {
		t.Fatalf("Len = %d", q.Len())
	}
	if got := pop(q, ms(5)); got != 1 {
		t.Errorf("first pop = %v", got)
	}
	if got := pop(q, ms(5)); got != 2 {
		t.Errorf("second pop = %v", got)
	}
}

func TestQueueAvailabilityRespectsArrivalTimes(t *testing.T) {
	q := newQueue("w", 4)
	push(q, 1, ms(10))
	push(q, 2, ms(20))
	push(q, 3, ms(30))
	if got := q.Available(ms(5)); got != 0 {
		t.Errorf("Available(5ms) = %d", got)
	}
	if got := q.Available(ms(20)); got != 2 {
		t.Errorf("Available(20ms) = %d", got)
	}
	if got := q.Available(ms(99)); got != 3 {
		t.Errorf("Available(99ms) = %d", got)
	}
	if at, ok := q.NextArrival(); !ok || at != ms(10) {
		t.Errorf("NextArrival = %v,%v", at, ok)
	}
	// A tuple still in the consumer's future cannot be popped.
	if n := q.PopColsN(ms(5), relation.NewBatch(1), make([]bool, 4)); n != 0 {
		t.Errorf("PopColsN(5ms) moved %d future tuples", n)
	}
}

func TestQueuePanicsOnMisuse(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("push full", func() {
		q := newQueue("w", 1)
		push(q, 1, 0)
		push(q, 2, 0)
	})
	mustPanic("push into debt-reserved window", func() {
		q := newQueue("w", 1)
		push(q, 1, 0)
		q.PopColsN(0, relation.NewBatch(1), make([]bool, 1))
		push(q, 2, 0)
	})
	mustPanic("backwards arrival", func() {
		q := newQueue("w", 2)
		push(q, 1, ms(10))
		push(q, 2, ms(5))
	})
	mustPanic("credit without debt", func() { newQueue("w", 2).Credit(0) })
	mustPanic("unpop beyond debt", func() { newQueue("w", 2).UnpopN(1) })
	mustPanic("zero capacity", func() { NewQueue("w", 0) })
}

type resumeRecorder struct{ calls []time.Duration }

func (r *resumeRecorder) Resume(now time.Duration) { r.calls = append(r.calls, now) }

func TestQueuePopResumesProducer(t *testing.T) {
	q := newQueue("w", 2)
	rec := &resumeRecorder{}
	q.SetProducer(rec)
	push(q, 1, ms(1))
	pop(q, ms(7))
	if len(rec.calls) != 1 || rec.calls[0] != ms(7) {
		t.Errorf("Resume calls = %v", rec.calls)
	}
}

func TestQueueRingWraparound(t *testing.T) {
	q := newQueue("w", 3)
	at := time.Duration(0)
	for round := 0; round < 10; round++ {
		for i := 0; i < 3; i++ {
			at += ms(1)
			push(q, int64(round*3+i), at)
		}
		for i := 0; i < 3; i++ {
			if got := pop(q, at); got != int64(round*3+i) {
				t.Fatalf("round %d pop %d = %v", round, i, got)
			}
		}
	}
	if q.TotalPopped() != 30 {
		t.Errorf("TotalPopped = %d", q.TotalPopped())
	}
}

// slot is one tuple of the brute-force models: the projected live-column
// values, the wrapper-side predicate verdict and the arrival instant.
type slot struct {
	vals relation.Tuple
	pass bool
	at   time.Duration
	ord  int64 // push ordinal, from 1
}

// popModel is the brute-force reference for the queue protocol: a plain
// slice for the buffer plus a slice for popped-but-uncredited tuples, scanned
// end to end, with none of the ring arithmetic, debt accounting, or cache
// maintenance. It also models the rate-estimator feed by push ordinal
// (instead of the queue's cursor arithmetic), feeding a reference estimator
// so the tests can prove no arrival is ever fed twice or out of push order
// across pop/Credit/UnpopN traffic.
type popModel struct {
	buf      []slot
	debt     []slot // popped, window slot still reserved
	capacity int
	pushed   int64 // ordinal of the newest pushed slot
	fedOrd   int64 // ordinal of the newest arrival fed to est
	est      rateEstimator
}

func newPopModel(capacity int) *popModel { return &popModel{capacity: capacity} }

func (m *popModel) full() bool { return len(m.buf)+len(m.debt) == m.capacity }

func (m *popModel) push(s slot) {
	m.pushed++
	s.ord = m.pushed
	m.buf = append(m.buf, s)
}

func (m *popModel) available(now time.Duration) int {
	n := 0
	for _, s := range m.buf {
		if s.at > now {
			break
		}
		n++
	}
	return n
}

func (m *popModel) popN(now time.Duration, max int) []slot {
	n := m.available(now)
	if n > max {
		n = max
	}
	out := append([]slot(nil), m.buf[:n]...)
	m.debt = append(m.debt, out...)
	m.buf = m.buf[n:]
	return out
}

func (m *popModel) credit() { m.debt = m.debt[1:] }

func (m *popModel) unpopN(n int) {
	cut := len(m.debt) - n
	m.buf = append(append([]slot(nil), m.debt[cut:]...), m.buf...)
	m.debt = m.debt[:cut]
}

// observeArrivals feeds the reference estimator, in order, every buffered,
// arrived slot pushed after the newest arrival it has fed — the per-tuple
// reference semantics of Queue.ObserveArrivals. A slot popped before it was
// fed and given back after a newer one was is passed over.
func (m *popModel) observeArrivals(now time.Duration) int {
	fedCount := 0
	for _, s := range m.buf {
		if s.at > now {
			break
		}
		if s.ord > m.fedOrd {
			m.est.observe([]time.Duration{s.at})
			m.fedOrd = s.ord
			fedCount++
		}
	}
	return fedCount
}

// modelWidth is the slot width of the model-checked queues: two live
// columns, so a column mix-up in the ring copies cannot hide.
const modelWidth = 2

// modelSlot is the seq-th tuple of the model-checked streams: seq-derived
// values, every third tuple filtered wrapper-side.
func modelSlot(seq int64, at time.Duration) slot {
	return slot{vals: relation.Tuple{seq, -seq}, pass: seq%3 != 0, at: at}
}

// run stages slots for one PushColsN, the way a wrapper pump does.
type run struct {
	vals [][]int64
	pass []bool
	at   []time.Duration
}

func (r *run) add(s slot) {
	if r.vals == nil {
		r.vals = make([][]int64, modelWidth)
	}
	for c := range r.vals {
		v := s.vals[c]
		if !s.pass {
			v = 1 << 40 // never shipped: must stay masked by the pass bit
		}
		r.vals[c] = append(r.vals[c], v)
	}
	r.pass = append(r.pass, s.pass)
	r.at = append(r.at, s.at)
}

// pushTo hands the staged run to q in one PushColsN.
func (r *run) pushTo(q *Queue) {
	if len(r.at) == 0 {
		return
	}
	q.PushColsN(r.vals, r.pass, r.at)
	for c := range r.vals {
		r.vals[c] = r.vals[c][:0]
	}
	r.pass, r.at = r.pass[:0], r.at[:0]
}

// feed pushes the same stream of tuples into the queue under test and the
// model.
type feed struct {
	q   *Queue
	m   *popModel
	seq int64
	run run
}

// stage adds one tuple arriving at instant at to the pending run.
func (f *feed) stage(at time.Duration) {
	f.seq++
	s := modelSlot(f.seq, at)
	f.m.push(s)
	f.run.add(s)
}

func (f *feed) flush() { f.run.pushTo(f.q) }

// checkPop bulk-pops up to max slots from queue and model at now and
// requires the same slots out of both: count, pass bits, and — for passing
// slots — every column value.
func checkPop(t *testing.T, where string, q *Queue, m *popModel, now time.Duration, max int) int {
	t.Helper()
	batch := relation.NewBatch(modelWidth)
	pass := make([]bool, max)
	n := q.PopColsN(now, batch, pass)
	want := m.popN(now, max)
	if n != len(want) {
		t.Fatalf("%s: PopColsN moved %d, want %d", where, n, len(want))
	}
	for i, w := range want {
		if pass[i] != w.pass {
			t.Fatalf("%s: slot %d pass = %v, want %v", where, i, pass[i], w.pass)
		}
		for c := 0; w.pass && c < modelWidth; c++ {
			if got := batch.Col(c)[i]; got != w.vals[c] {
				t.Fatalf("%s: slot %d col %d = %d, want %d", where, i, c, got, w.vals[c])
			}
		}
	}
	return n
}

// checkState requires queue and model to agree on every protocol
// observable: window occupancy, debt and the estimator's state.
func checkState(t *testing.T, where string, q *Queue, m *popModel) {
	t.Helper()
	if q.Len() != len(m.buf) || q.Debt() != len(m.debt) || q.Full() != m.full() {
		t.Fatalf("%s: Len/Debt/Full = %d/%d/%v, want %d/%d/%v",
			where, q.Len(), q.Debt(), q.Full(), len(m.buf), len(m.debt), m.full())
	}
	checkEstimator(t, where, q, m)
}

// checkEstimator requires the queue's rate estimator to have absorbed exactly
// the arrivals the model fed its reference estimator. It reads nothing that
// would make the queue settle deferred production.
func checkEstimator(t *testing.T, where string, q *Queue, m *popModel) {
	t.Helper()
	gotW, gotOK := q.EstimatedWait()
	wantW, wantOK := m.est.wait()
	if gotW != wantW || gotOK != wantOK || q.Observations() != m.est.n {
		t.Fatalf("%s: estimator = %v,%v after %d, want %v,%v after %d",
			where, gotW, gotOK, q.Observations(), wantW, wantOK, m.est.n)
	}
}

// TestQueueAgreesWithBruteForceModel drives the queue and the model through
// randomized interleavings of pushes, drains and Available — including
// Available queries at instants both ahead of and behind the cache's
// high-water mark — and requires them to agree at every step. This pins the
// O(1) arrived-count cache and the branch-based wraparound against the
// obviously correct O(n) rescan they replaced.
func TestQueueAgreesWithBruteForceModel(t *testing.T) {
	for trial := 0; trial < 30; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		capacity := 1 + rng.Intn(9) // deliberately not a power of two
		q := NewQueue("w", capacity)
		q.SetColumnar(modelWidth)
		m := newPopModel(capacity)
		f := &feed{q: q, m: m}
		var lastArrival time.Duration
		for step := 0; step < 2000; step++ {
			where := fmt.Sprintf("trial %d step %d", trial, step)
			switch op := rng.Intn(4); {
			case op == 0 && q.Len() < capacity: // push
				lastArrival += time.Duration(rng.Intn(5)) * time.Millisecond
				f.stage(lastArrival)
				f.flush()
			case op == 1: // pop everything arrived at a random instant
				now := lastArrival - time.Duration(rng.Intn(8))*time.Millisecond
				if now < 0 {
					now = 0
				}
				for q.Available(now) > 0 {
					checkPop(t, where, q, m, now, 1)
					q.Credit(now)
					m.credit()
				}
			default: // compare availability at a random instant, often in the past
				now := lastArrival - time.Duration(rng.Intn(12))*time.Millisecond
				if now < 0 {
					now = 0
				}
				if got, want := q.Available(now), m.available(now); got != want {
					t.Fatalf("%s: Available(%v) = %d, want %d (len=%d cap=%d)",
						where, now, got, want, q.Len(), capacity)
				}
			}
			checkState(t, where, q, m)
		}
	}
}

// refillProducer mirrors the wrapper pump against both the queue under test
// and the brute-force model: each Resume pushes up to one refill tuple with
// an arrival derived from the resume instant, exactly when the window has
// room — so debt-reserved slots must keep it suspended just like buffered
// tuples would.
type refillProducer struct {
	f           *feed
	rows        int64
	lastArrival time.Duration
}

func (p *refillProducer) Resume(now time.Duration) {
	if p.rows <= 0 || p.f.q.Full() {
		return
	}
	at := now + ms(3)
	if at < p.lastArrival {
		at = p.lastArrival
	}
	p.lastArrival = at
	p.rows--
	p.f.stage(at)
	p.f.flush()
}

// TestQueuePopNAgreesWithBruteForceModel drives the bulk protocol — pushes
// of whole runs, PopColsN with partial-arrival batches and wrapper-filtered
// slots, per-tuple Credit with a live producer that refills the window
// mid-batch, UnpopN of unprocessed tails, and ObserveArrivals at any point,
// mid-batch included — against the brute-force model, requiring
// slot-for-slot and estimator-state agreement at every step.
func TestQueuePopNAgreesWithBruteForceModel(t *testing.T) {
	for trial := 0; trial < 30; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		capacity := 1 + rng.Intn(9)
		q := NewQueue("w", capacity)
		q.SetColumnar(modelWidth)
		m := newPopModel(capacity)
		f := &feed{q: q, m: m}
		prod := &refillProducer{f: f, rows: 500}
		q.SetProducer(prod)
		var now time.Duration
		for step := 0; step < 2000; step++ {
			where := fmt.Sprintf("trial %d step %d", trial, step)
			switch op := rng.Intn(7); {
			case op == 0 && !q.Full(): // direct push of a run (initial fill traffic)
				for n := 1 + rng.Intn(capacity-q.Len()-q.Debt()); n > 0; n-- {
					prod.lastArrival += time.Duration(rng.Intn(5)) * time.Millisecond
					f.stage(prod.lastArrival)
				}
				f.flush()
			case op == 1 || op == 2: // bulk pop at an instant that may strand late arrivals
				now += time.Duration(rng.Intn(6)) * time.Millisecond
				checkPop(t, where, q, m, now, 1+rng.Intn(capacity+2))
			case op == 3 && q.Debt() > 0: // credit one slot; producer may refill mid-batch
				now += time.Duration(rng.Intn(3)) * time.Millisecond
				q.Credit(now)
				m.credit()
			case op == 4 && q.Debt() > 0: // give back an unprocessed tail
				n := 1 + rng.Intn(q.Debt())
				q.UnpopN(n)
				m.unpopN(n)
			case op == 5: // CM observation, possibly with a batch in debt
				if got, want := q.ObserveArrivals(now), m.observeArrivals(now); got != want {
					t.Fatalf("%s: ObserveArrivals fed %d, want %d", where, got, want)
				}
			default: // availability probe, sometimes in the past
				at := now - time.Duration(rng.Intn(8))*time.Millisecond
				if at < 0 {
					at = 0
				}
				if got, want := q.Available(at), m.available(at); got != want {
					t.Fatalf("%s: Available(%v) = %d, want %d", where, at, got, want)
				}
			}
			checkState(t, where, q, m)
			if got, want := q.TotalPopped(), f.seq-int64(len(m.buf)); got != want {
				t.Fatalf("%s: TotalPopped = %d, want %d", where, got, want)
			}
		}
		// Drain: credit all debt, then pop and credit the remainder, checking
		// FIFO order survives the wraparound and unpop traffic.
		for q.Debt() > 0 {
			q.Credit(now)
			m.credit()
		}
		now += time.Duration(len(m.buf)+1) * time.Second
		if got, want := q.ObserveArrivals(now), m.observeArrivals(now); got != want {
			t.Fatalf("trial %d drain: ObserveArrivals fed %d, want %d", trial, got, want)
		}
		for q.Available(now) > 0 {
			checkPop(t, fmt.Sprintf("trial %d drain", trial), q, m, now, 1)
			q.Credit(now)
			m.credit()
		}
		checkState(t, fmt.Sprintf("trial %d drain", trial), q, m)
	}
}

func TestQueuePopNDoesNotResumeUntilCredit(t *testing.T) {
	q := newQueue("w", 2)
	rec := &resumeRecorder{}
	q.SetProducer(rec)
	push(q, 1, ms(1))
	push(q, 2, ms(2))
	if n := q.PopColsN(ms(5), relation.NewBatch(1), make([]bool, 2)); n != 2 {
		t.Fatalf("PopColsN = %d", n)
	}
	if len(rec.calls) != 0 {
		t.Fatalf("PopColsN resumed producer: %v", rec.calls)
	}
	if !q.Full() {
		t.Error("debt slots should keep the window full")
	}
	q.Credit(ms(7))
	q.Credit(ms(9))
	if len(rec.calls) != 2 || rec.calls[0] != ms(7) || rec.calls[1] != ms(9) {
		t.Errorf("Resume calls = %v", rec.calls)
	}
	if q.Full() || q.Debt() != 0 {
		t.Errorf("after credits: Full=%v Debt=%d", q.Full(), q.Debt())
	}
}

// TestUnpopNRestoresObservedAccounting pins the estimator feed across a
// mid-batch overflow (a fragment's PopColsN → Credit… → UnpopN): an arrival
// already fed to the rate estimator must not be fed again after its tuple is
// returned to the buffer, an arrival that was never fed must still be fed
// later, and the feed never goes back behind an arrival it has fed.
func TestUnpopNRestoresObservedAccounting(t *testing.T) {
	push5 := func(q *Queue) {
		for i := 0; i < 5; i++ {
			push(q, int64(i), ms(10*i))
		}
	}
	pop5 := func(q *Queue) {
		t.Helper()
		if n := q.PopColsN(ms(100), relation.NewBatch(1), make([]bool, 5)); n != 5 {
			t.Fatalf("PopColsN = %d", n)
		}
	}

	// Fully observed batch: the review's reproduction. All 5 arrivals are
	// fed before the pop; after two credits and an UnpopN of the remaining 3,
	// re-observing must feed nothing.
	q := newQueue("w", 8)
	push5(q)
	if fed := q.ObserveArrivals(ms(100)); fed != 5 {
		t.Fatalf("initial observation fed %d, want 5", fed)
	}
	mean, _ := q.EstimatedWait()
	pop5(q)
	q.Credit(ms(101))
	q.Credit(ms(102))
	q.UnpopN(3)
	if fed := q.ObserveArrivals(ms(200)); fed != 0 {
		t.Fatalf("re-observation after UnpopN fed %d duplicates, want 0", fed)
	}
	if m, _ := q.EstimatedWait(); m != mean {
		t.Fatalf("duplicate feed moved the estimate: %v, want %v", m, mean)
	}
	if obs := q.Observations(); obs != 5 {
		t.Fatalf("Observations = %d, want 5", obs)
	}

	// Partially observed batch (the clamped case): only 2 of the 5 popped
	// arrivals were fed, so the 3 unfed tuples given back by UnpopN must
	// still be fed exactly once when they are next observed.
	q = newQueue("w", 8)
	push5(q)
	if fed := q.ObserveArrivals(ms(15)); fed != 2 {
		t.Fatalf("partial observation fed %d, want 2", fed)
	}
	pop5(q)
	q.Credit(ms(101))
	q.Credit(ms(102))
	q.UnpopN(3)
	if fed := q.ObserveArrivals(ms(200)); fed != 3 {
		t.Fatalf("observation after UnpopN fed %d, want 3", fed)
	}
	// The feed order was arrival order (0,10 then 20,30,40 ms), so the EWMA
	// over the 10ms gaps is exact.
	checkFeed := func(want ...time.Duration) {
		t.Helper()
		var ref rateEstimator
		ref.observe(want)
		w, _ := ref.wait()
		if m, _ := q.EstimatedWait(); m != w || q.Observations() != int64(len(want)) {
			t.Fatalf("EstimatedWait = %v after %d, want %v after %d", m, q.Observations(), w, len(want))
		}
	}
	checkFeed(0, ms(10), ms(20), ms(30), ms(40))

	// Observation while a partly observed batch is in debt: 2 of the 5
	// popped arrivals were fed, then two newer ones. The 3 unfed tuples
	// given back lie behind the feed, so they are passed over, not fed
	// late and out of push order.
	q = newQueue("w", 8)
	push5(q)
	if fed := q.ObserveArrivals(ms(15)); fed != 2 {
		t.Fatalf("partial observation fed %d, want 2", fed)
	}
	pop5(q)
	push(q, 5, ms(50))
	push(q, 6, ms(60))
	if fed := q.ObserveArrivals(ms(100)); fed != 2 {
		t.Fatalf("observation with the batch in debt fed %d, want 2", fed)
	}
	q.UnpopN(3)
	if fed := q.ObserveArrivals(ms(200)); fed != 0 {
		t.Fatalf("observation after UnpopN fed %d, want 0", fed)
	}
	checkFeed(0, ms(10), ms(50), ms(60))
}

// TestQueuePushNMatchesPush: one PushColsN of a run leaves the queue exactly
// as a push per tuple does, across a ring wrap and with the arrived-prefix
// cache ahead of part of the run.
func TestQueuePushNMatchesPush(t *testing.T) {
	a := newQueue("a", 7)
	b := newQueue("b", 7)
	vals := []int64{1, 2, 3, 4, 5}
	arrivals := []time.Duration{ms(1), ms(1), ms(4), ms(9), ms(12)}
	// Offset both rings so the run has to wrap.
	for _, q := range []*Queue{a, b} {
		push(q, 0, 0)
		pop(q, 0)
		q.Available(ms(2)) // advance the arrived cache high-water mark
	}
	for i := range vals {
		push(a, vals[i], arrivals[i])
	}
	b.PushColsN([][]int64{vals}, []bool{true, true, true, true, true}, arrivals)
	if a.Len() != b.Len() {
		t.Fatalf("Len: %d vs %d", a.Len(), b.Len())
	}
	for _, at := range []time.Duration{0, ms(1), ms(2), ms(5), ms(20)} {
		if x, y := a.Available(at), b.Available(at); x != y {
			t.Errorf("Available(%v): %d vs %d", at, x, y)
		}
	}
	for a.Len() > 0 {
		if x, y := pop(a, ms(20)), pop(b, ms(20)); x != y {
			t.Errorf("pop order diverged: %v vs %v", x, y)
		}
	}
}

func TestRateEstimatorEWMA(t *testing.T) {
	var e rateEstimator
	if _, ok := e.wait(); ok {
		t.Error("estimator reported a mean with no observations")
	}
	e.observe([]time.Duration{0})
	if _, ok := e.wait(); ok {
		t.Error("estimator reported a mean after one observation")
	}
	e.observe([]time.Duration{ms(10)}) // first gap: 10ms
	if m, ok := e.wait(); !ok || m != ms(10) {
		t.Errorf("mean after first gap = %v,%v", m, ok)
	}
	e.observe([]time.Duration{ms(30), ms(40)}) // gaps 20ms, 10ms
	// mean = 0.05*20 + 0.95*10 = 10.5ms, then 0.05*10 + 0.95*10.5 = 10.475ms
	if m, _ := e.wait(); m < 10474*time.Microsecond || m > 10476*time.Microsecond {
		t.Errorf("EWMA mean = %v, want 10.475ms", m)
	}
	if e.n != 4 {
		t.Errorf("Observations = %d", e.n)
	}
}

func TestObserveArrivalsIsCausalAndIncremental(t *testing.T) {
	q := NewQueue("w", 8)
	push(q, 1, ms(10))
	push(q, 2, ms(20))
	push(q, 3, ms(300))
	q.ObserveArrivals(ms(25)) // sees two arrivals → one gap
	if m, ok := q.EstimatedWait(); !ok || m != ms(10) {
		t.Errorf("estimate after 2 arrivals = %v,%v, want 10ms", m, ok)
	}
	// Re-observing must not double count.
	q.ObserveArrivals(ms(25))
	if m, _ := q.EstimatedWait(); m != ms(10) {
		t.Errorf("re-observation changed estimate to %v", m)
	}
}

func TestSignificantChange(t *testing.T) {
	cases := []struct {
		old, new time.Duration
		want     bool
	}{
		{ms(10), ms(10), false},
		{ms(10), ms(25), true},
		{ms(25), ms(10), true},
		{ms(10), ms(19), false},
		{ms(10), ms(20), false}, // exactly changeFactor is not beyond it
		{0, 0, false},
		{0, ms(5), true},
		{ms(5), 0, true},
	}
	for _, tc := range cases {
		if got := significantChange(tc.old, tc.new); got != tc.want {
			t.Errorf("significantChange(%v, %v) = %v, want %v", tc.old, tc.new, got, tc.want)
		}
	}
}

func TestManagerDuplicateRegisterPanics(t *testing.T) {
	m := NewManager()
	m.Adopt(NewQueue("A", 8))
	defer func() {
		if recover() == nil {
			t.Error("duplicate register did not panic")
		}
	}()
	m.Adopt(NewQueue("A", 8))
}

func TestManagerRateChangeDetection(t *testing.T) {
	m := NewManager()
	q := NewQueue("A", 1024)
	m.Adopt(q)
	at := time.Duration(0)
	for i := 0; i < 10; i++ {
		at += ms(1)
		push(q, int64(i), at)
	}
	m.Observe(at)
	m.SnapshotPlanned(ms(1))
	if got := m.RateChanged(); got != "" {
		t.Errorf("rate change on stable stream: %q", got)
	}
	// The wrapper slows down by 10x: the EWMA crosses the factor-2 bound.
	for i := 0; i < 60; i++ {
		at += ms(10)
		push(q, int64(100+i), at)
	}
	m.Observe(at)
	if got := m.RateChanged(); got != "A" {
		t.Errorf("RateChanged = %q, want A", got)
	}
}
