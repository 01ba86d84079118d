package comm

import (
	"fmt"
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
	last time.Duration
	rng  *rand.Rand
}

func (p *refillPump) refill(floor time.Duration) time.Duration {
	at := floor + time.Duration(p.rng.Intn(6))*time.Millisecond
	if at < p.last {
		at = p.last
	}
	p.last = at
	p.rows--
	return at
}

// bulkPump is the queue-side pump: a bulkProducer staging every refill of a
// run of credits and delivering it in one PushColsN.
type bulkPump struct {
	refillPump
	q    *Queue
	bulk int // ResumeN calls replaying more than one credit
	seq  int64
	run  run
}

func (p *bulkPump) Resume(now time.Duration) { p.ResumeN([]time.Duration{now}) }

func (p *bulkPump) ResumeN(floors []time.Duration) {
	if len(floors) > 1 {
		p.bulk++
	}
	for i, floor := range floors {
		owed := len(floors) - 1 - i
		for p.rows > 0 && p.q.Len()+p.q.Debt()+len(p.run.at)+owed < p.q.Capacity() {
			p.seq++
			p.run.add(modelSlot(p.seq, p.refill(floor)))
		}
	}
	p.run.pushTo(p.q)
}

// TestDeferredCreditsAgreeWithEagerModel drives a queue whose producer
// defers (bulkProducer) against the brute-force model refilled eagerly at
// every credit: bulk pops that strand late arrivals, credits, UnpopN of
// unprocessed tails, CM observations at any point, NextArrival, and
// Available probes at back-dated instants must all read exactly what the
// eager model reads, although the queue simulates production only when it
// settles.
func TestDeferredCreditsAgreeWithEagerModel(t *testing.T) {
	// How often the interesting interleavings actually happened: bulk replays
	// of more than one credit, and UnpopN / back-dated probes hitting a queue
	// with credits pending.
	var bulkReplays, unpopsPending, backdatedPending int
	for trial := 0; trial < 40; trial++ {
		rng := rand.New(rand.NewSource(int64(7000 + trial)))
		capacity := 1 + rng.Intn(9)
		q := NewQueue("w", capacity)
		q.SetColumnar(modelWidth)
		m := newPopModel(capacity)
		rows := 200 + rng.Intn(200)
		eager := &refillPump{rows: rows, rng: rand.New(rand.NewSource(int64(trial)))}
		bulk := &bulkPump{refillPump: refillPump{rows: rows, rng: rand.New(rand.NewSource(int64(trial)))}, q: q}
		var eagerSeq int64
		resumeModel := func(floor time.Duration) {
			for eager.rows > 0 && !m.full() {
				eagerSeq++
				m.push(modelSlot(eagerSeq, eager.refill(floor)))
			}
		}
		q.SetProducer(bulk)
		bulk.Resume(0)
		resumeModel(0)

		var now time.Duration
		for step := 0; step < 3000; step++ {
			where := fmt.Sprintf("trial %d step %d", trial, step)
			switch op := rng.Intn(9); {
			case op <= 1: // bulk pop at an instant that may strand late arrivals
				now += time.Duration(rng.Intn(6)) * time.Millisecond
				checkPop(t, where, q, m, now, 1+rng.Intn(capacity+2))
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
			case op == 5: // CM observation, possibly with a batch in debt
				if got, want := q.ObserveArrivals(now), m.observeArrivals(now); got != want {
					t.Fatalf("%s: ObserveArrivals fed %d, want %d", where, got, want)
				}
			case op == 6:
				gotAt, gotOK := q.NextArrival()
				wantOK := len(m.buf) > 0
				if gotOK != wantOK || (wantOK && gotAt != m.buf[0].at) {
					t.Fatalf("%s: NextArrival = %v,%v, model has %d buffered", where, gotAt, gotOK, len(m.buf))
				}
			case op == 7: // the settling accessors
				if q.Len() != len(m.buf) || q.Full() != m.full() {
					t.Fatalf("%s: Len/Full = %d/%v, want %d/%v",
						where, q.Len(), q.Full(), len(m.buf), m.full())
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
					t.Fatalf("%s: Available(%v) = %d, want %d (pending %d)",
						where, at, got, want, q.Deferred())
				}
			}
			if q.Debt() != len(m.debt) {
				t.Fatalf("%s: Debt = %d, want %d", where, q.Debt(), len(m.debt))
			}
			if q.Deferred() > capacity-q.size-q.debt {
				t.Fatalf("%s: %d pending credits exceed the %d free slots",
					where, q.Deferred(), capacity-q.size-q.debt)
			}
			checkEstimator(t, where, q, m)
		}
		// Detaching the producer settles what the credits so far are owed.
		q.ClearProducer()
		if q.Deferred() != 0 || q.Len() != len(m.buf) {
			t.Fatalf("trial %d: after ClearProducer %d pending, Len %d, want 0 and %d",
				trial, q.Deferred(), q.Len(), len(m.buf))
		}
		if bulk.seq != eagerSeq || bulk.last != eager.last {
			t.Fatalf("trial %d: pumps diverged: bulk at row %d (%v), eager at row %d (%v)",
				trial, bulk.seq, bulk.last, eagerSeq, eager.last)
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
	q := newQueue("w", 4)
	rec := &resumeRecorder{}
	q.SetProducer(rec)
	for i := 0; i < 4; i++ {
		push(q, int64(i), ms(i))
	}
	if n := q.PopColsN(ms(10), relation.NewBatch(1), make([]bool, 4)); n != 4 {
		t.Fatalf("PopColsN = %d", n)
	}
	for i := 0; i < 4; i++ {
		q.Credit(ms(10 + i))
		if q.Deferred() != 0 || len(rec.calls) != i+1 {
			t.Fatalf("credit %d: %d pending, %d resumes", i, q.Deferred(), len(rec.calls))
		}
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
	for _, gap := range gaps {
		base := time.Duration(rng.Int63n(int64(time.Hour)))
		var e rateEstimator
		e.observe([]time.Duration{base, base + gap})
		want := gap.Seconds()
		if want < 0 {
			want = 0
		}
		if math.Float64bits(e.mean) != math.Float64bits(want) {
			t.Fatalf("gap %v: estimator recorded %x, Seconds() gives %x", gap, math.Float64bits(e.mean), math.Float64bits(want))
		}
	}
}
