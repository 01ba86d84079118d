package comm

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"dqs/internal/relation"
)

// refillPump is the wrapper pump of the deferred-production model test:
// every resume fills the free window slots, each refill arriving a jittered
// delay after the resume instant and never before its predecessor. Two
// pumps built from the same seed produce the same stream, so one can feed
// the brute-force model eagerly, credit by credit, while the other is
// replayed in bulk by the queue under test.
type refillPump struct {
	rows int
	seq  int64
	last time.Duration
	rng  *rand.Rand
}

func (p *refillPump) refill(floor time.Duration) (relation.Tuple, time.Duration) {
	at := floor + time.Duration(p.rng.Intn(6))*time.Millisecond
	if at < p.last {
		at = p.last
	}
	p.last = at
	p.rows--
	p.seq++
	return relation.Tuple{p.seq}, at
}

// bulkPump is the queue-side pump: a BulkProducer staging every refill of a
// run of credits and delivering it in one PushN.
type bulkPump struct {
	refillPump
	q       *Queue
	bulk    int // ResumeN calls replaying more than one credit
	stageT  []relation.Tuple
	stageAt []time.Duration
}

func (p *bulkPump) Resume(now time.Duration) { p.ResumeN([]time.Duration{now}) }

func (p *bulkPump) ResumeN(floors []time.Duration) {
	if len(floors) > 1 {
		p.bulk++
	}
	for i, floor := range floors {
		owed := len(floors) - 1 - i
		for p.rows > 0 && p.q.Len()+p.q.Debt()+len(p.stageAt)+owed < p.q.Capacity() {
			t, at := p.refill(floor)
			p.stageT = append(p.stageT, t)
			p.stageAt = append(p.stageAt, at)
		}
	}
	p.q.PushN(p.stageT, p.stageAt)
	p.stageT, p.stageAt = p.stageT[:0], p.stageAt[:0]
}

// TestDeferredCreditsAgreeWithEagerModel drives a queue whose producer
// defers (BulkProducer) against the brute-force model refilled eagerly at
// every credit: PopN batches that strand late arrivals, credits, UnpopN of
// unprocessed tails, CM observations, NextArrival, and Available probes at
// back-dated instants must all read exactly what the eager model reads,
// although the queue simulates production only when it settles.
func TestDeferredCreditsAgreeWithEagerModel(t *testing.T) {
	// How often the interesting interleavings actually happened: bulk replays
	// of more than one credit, and UnpopN / back-dated probes hitting a queue
	// with credits pending.
	var bulkReplays, unpopsPending, backdatedPending int
	for trial := 0; trial < 40; trial++ {
		rng := rand.New(rand.NewSource(int64(7000 + trial)))
		capacity := 1 + rng.Intn(9)
		q := NewQueue("w", capacity)
		m := &popModel{capacity: capacity, est: NewRateEstimator(defaultEWMAAlpha)}
		rows := 200 + rng.Intn(200)
		eager := &refillPump{rows: rows, rng: rand.New(rand.NewSource(int64(trial)))}
		bulk := &bulkPump{refillPump: refillPump{rows: rows, rng: rand.New(rand.NewSource(int64(trial)))}, q: q}
		resumeModel := func(floor time.Duration) {
			for eager.rows > 0 && !m.full() {
				m.push(eager.refill(floor))
			}
		}
		q.SetProducer(bulk)
		bulk.Resume(0)
		resumeModel(0)

		var now time.Duration
		buf := make([]relation.Tuple, capacity+2)
		for step := 0; step < 3000; step++ {
			switch op := rng.Intn(9); {
			case op <= 1: // bulk pop at an instant that may strand late arrivals
				now += time.Duration(rng.Intn(6)) * time.Millisecond
				max := 1 + rng.Intn(len(buf))
				got := buf[:q.PopN(now, buf[:max])]
				want := m.popN(now, max)
				if len(got) != len(want) {
					t.Fatalf("trial %d step %d: PopN moved %d, want %d", trial, step, len(got), len(want))
				}
				for i := range got {
					if got[i][0] != want[i][0] {
						t.Fatalf("trial %d step %d: PopN[%d] = %v, want %v", trial, step, i, got[i], want[i])
					}
				}
			case op <= 3 && q.Debt() > 0: // credit: recorded by the queue, refilled at once in the model
				now += time.Duration(rng.Intn(3)) * time.Millisecond
				q.Credit(now)
				m.credit()
				resumeModel(now)
			case op == 4 && q.Debt() > 0: // give back an unprocessed tail with credits pending
				n := 1 + rng.Intn(q.Debt())
				if q.Deferred() > 0 {
					unpopsPending++
				}
				q.UnpopN(n)
				m.unpopN(n)
			case op == 5 && q.Debt() == 0: // CM observation at a round boundary
				if got, want := q.ObserveArrivals(now), m.observeArrivals(now); got != want {
					t.Fatalf("trial %d step %d: ObserveArrivals fed %d, want %d", trial, step, got, want)
				}
			case op == 6:
				gotAt, gotOK := q.NextArrival()
				wantOK := len(m.arrivals) > 0
				if gotOK != wantOK || (wantOK && gotAt != m.arrivals[0]) {
					t.Fatalf("trial %d step %d: NextArrival = %v,%v, model has %v", trial, step, gotAt, gotOK, m.arrivals)
				}
			case op == 7: // the settling accessors
				if q.Len() != len(m.tuples) || q.Full() != m.full() {
					t.Fatalf("trial %d step %d: Len/Full = %d/%v, want %d/%v",
						trial, step, q.Len(), q.Full(), len(m.tuples), m.full())
				}
			default: // availability probe, often in the past
				at := now - time.Duration(rng.Intn(10))*time.Millisecond
				if at < 0 {
					at = 0
				}
				if at < now && q.Deferred() > 0 {
					backdatedPending++
				}
				if got, want := q.Available(at), m.available(at); got != want {
					t.Fatalf("trial %d step %d: Available(%v) = %d, want %d (pending %d)",
						trial, step, at, got, want, q.Deferred())
				}
			}
			if q.Debt() != len(m.debt) {
				t.Fatalf("trial %d step %d: Debt = %d, want %d", trial, step, q.Debt(), len(m.debt))
			}
			if q.Deferred() > capacity-q.size-q.debt {
				t.Fatalf("trial %d step %d: %d pending credits exceed the %d free slots",
					trial, step, q.Deferred(), capacity-q.size-q.debt)
			}
			gotW, gotOK := q.EstimatedWait()
			wantW, wantOK := m.est.Mean()
			if gotW != wantW || gotOK != wantOK || q.Observations() != m.est.Observations() {
				t.Fatalf("trial %d step %d: estimator = %v,%v after %d, want %v,%v after %d",
					trial, step, gotW, gotOK, q.Observations(), wantW, wantOK, m.est.Observations())
			}
		}
		// Detaching the producer settles what the credits so far are owed.
		q.ClearProducer()
		if q.Deferred() != 0 || q.Len() != len(m.tuples) {
			t.Fatalf("trial %d: after ClearProducer %d pending, Len %d, want 0 and %d",
				trial, q.Deferred(), q.Len(), len(m.tuples))
		}
		if bulk.seq != eager.seq || bulk.last != eager.last {
			t.Fatalf("trial %d: pumps diverged: bulk at row %d (%v), eager at row %d (%v)",
				trial, bulk.seq, bulk.last, eager.seq, eager.last)
		}
		bulkReplays += bulk.bulk
	}
	if bulkReplays < 100 || unpopsPending < 100 || backdatedPending < 100 {
		t.Errorf("the run barely exercised deferral: %d multi-credit replays, %d UnpopN and %d back-dated probes with credits pending",
			bulkReplays, unpopsPending, backdatedPending)
	}
}

// TestResumeOnlyProducerStaysEager pins the fallback: a producer without
// ResumeN is resumed at every credit, and nothing is ever pending.
func TestResumeOnlyProducerStaysEager(t *testing.T) {
	q := NewQueue("w", 4)
	rec := &resumeRecorder{}
	q.SetProducer(rec)
	for i := 0; i < 4; i++ {
		q.Push(relation.Tuple{int64(i)}, ms(i))
	}
	buf := make([]relation.Tuple, 4)
	if n := q.PopN(ms(10), buf); n != 4 {
		t.Fatalf("PopN = %d", n)
	}
	for i := 0; i < 4; i++ {
		q.Credit(ms(10 + i))
		if q.Deferred() != 0 || len(rec.calls) != i+1 {
			t.Fatalf("credit %d: %d pending, %d resumes", i, q.Deferred(), len(rec.calls))
		}
	}
}

// TestColumnarQueueNeverAllocatesRowRing pins the lazy row ring: a columnar
// queue runs its whole protocol without one, a row queue gets it on first
// push.
func TestColumnarQueueNeverAllocatesRowRing(t *testing.T) {
	q := NewQueue("w", 4)
	q.SetColumnar(1)
	vals := [][]int64{{1, 2, 3}}
	q.PushColsN(vals, []bool{true, true, false}, []time.Duration{ms(1), ms(2), ms(3)})
	batch := relation.NewBatch(1)
	pass := make([]bool, 4)
	if n := q.PopColsN(ms(5), batch, pass); n != 3 {
		t.Fatalf("PopColsN = %d", n)
	}
	q.Credit(ms(5))
	q.UnpopN(2)
	q.Reset("w2")
	if q.tuples != nil {
		t.Error("columnar traffic allocated the row ring")
	}
	q.Push(relation.Tuple{1}, ms(1))
	if len(q.tuples) != 4 {
		t.Errorf("row ring has %d slots after the first push, want 4", len(q.tuples))
	}
}

// TestRateEstimatorGapFastPathIsBitIdentical compares the estimator's
// sub-second fast path against Duration.Seconds over random gaps on both
// sides of one second (and of zero, which clamps).
func TestRateEstimatorGapFastPathIsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	gaps := []time.Duration{0, 1, time.Second - 1, time.Second, time.Second + 1, -1, -time.Second}
	for i := 0; i < 200000; i++ {
		switch i % 4 {
		case 0:
			gaps = append(gaps, time.Duration(rng.Int63n(int64(time.Second))))
		case 1:
			gaps = append(gaps, time.Second+time.Duration(rng.Int63n(int64(time.Hour))))
		case 2:
			gaps = append(gaps, time.Second+time.Duration(rng.Int63n(2001))-1000)
		default:
			gaps = append(gaps, -time.Duration(rng.Int63n(int64(2*time.Second))))
		}
	}
	e := NewRateEstimator(defaultEWMAAlpha)
	for _, gap := range gaps {
		base := time.Duration(rng.Int63n(int64(time.Hour)))
		e.Reset()
		e.Observe(base)
		e.Observe(base + gap)
		want := gap.Seconds()
		if want < 0 {
			want = 0
		}
		if math.Float64bits(e.mean) != math.Float64bits(want) {
			t.Fatalf("gap %v: estimator recorded %x, Seconds() gives %x", gap, math.Float64bits(e.mean), math.Float64bits(want))
		}
	}
}
