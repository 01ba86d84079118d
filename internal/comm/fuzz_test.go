package comm

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// resumeOnly hides a pump's ResumeN from the queue, forcing the eager
// resume-per-credit path.
type resumeOnly struct{ p *bulkPump }

func (r resumeOnly) Resume(now time.Duration) { r.p.Resume(now) }

// FuzzQueueOps interprets its input as a queue geometry followed by an op
// stream over PushColsN, PopColsN or PopView, Credit, UnpopN,
// ObserveArrivals, Settle and Available, and checks the queue against the
// brute-force popModel after every op — once with an eager producer
// refilling the window at each credit and once with a bulkProducer whose
// refills the queue defers. The model is always refilled eagerly, so the
// deferring run also proves deferral invisible. ObserveArrivals may come at
// any point, a batch in debt included. Byte 0 picks the capacity, and from
// 9 on the pops are PopView's borrowed runs instead of PopColsN's copies:
// each borrowed slot is read again just before its credit, so a refill or a
// direct push that overwrote it while it was lent out fails. Byte 1 is how
// many tuples the producer holds (direct pushes take over once it runs
// dry); each further byte is one op (low bits) with its argument (high
// bits).
func FuzzQueueOps(f *testing.F) {
	f.Add([]byte{3, 40, 1, 9, 2, 16, 3, 4, 1, 2, 2, 5, 6, 48, 0, 1})
	f.Add([]byte{0, 0, 0, 0, 1, 2, 0, 8, 1, 10, 4, 3, 2, 2, 5})
	f.Add([]byte{8, 200, 1, 1, 2, 2, 2, 3, 10, 1, 2, 4, 6, 13, 5, 1, 2, 2, 2, 2, 4})
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 2 {
			return
		}
		for _, bulk := range []bool{false, true} {
			fuzzQueueOps(t, in, bulk)
		}
	})
}

// lentSlot is a slot a PopView lent out: column c is cols[c][i], and until
// its credit it must read as want.
type lentSlot struct {
	cols [][]int64
	i    int
	want slot
}

// checkView pops a borrowed run of up to max slots from the queue and the
// same slots from the model and requires them to agree, as checkPop does. A
// run stops at the ring's end; rest is what the previous run left there,
// which this one takes without reading availability. The run's slots are
// appended to lent.
func checkView(t *testing.T, where string, q *Queue, m *popModel, now time.Duration, max int, rest *int, lent []lentSlot) []lentSlot {
	t.Helper()
	want := *rest
	if want == 0 {
		want = m.available(now)
	}
	want = min(want, max)
	first := min(want, q.capacity-q.head)
	cols, pass := q.PopView(now, max, nil)
	if len(pass) != first || (first > 0 && len(cols) != modelWidth) {
		t.Fatalf("%s: PopView lent %d slots of width %d, want %d of width %d", where, len(pass), len(cols), first, modelWidth)
	}
	*rest = want - first
	for i, w := range m.popN(now, first) {
		if pass[i] != w.pass {
			t.Fatalf("%s: lent slot %d pass = %v, want %v", where, i, pass[i], w.pass)
		}
		lent = append(lent, lentSlot{cols, i, w})
	}
	checkLent(t, where, lent[len(lent)-first:])
	return lent
}

// checkLent requires every passing lent slot to still read as the model's.
func checkLent(t *testing.T, where string, lent []lentSlot) {
	t.Helper()
	for _, l := range lent {
		for c := 0; l.want.pass && c < modelWidth; c++ {
			if got := l.cols[c][l.i]; got != l.want.vals[c] {
				t.Fatalf("%s: lent slot of tuple %d col %d reads %d, want %d", where, l.want.vals[0], c, got, l.want.vals[c])
			}
		}
	}
}

func fuzzQueueOps(t *testing.T, in []byte, bulk bool) {
	capacity, rows, view := 1+int(in[0])%9, int(in[1]), in[0] >= 9
	var rest int        // what the last PopView left at the ring's end
	var lent []lentSlot // PopView's uncredited slots, oldest first
	q := NewQueue("w", capacity)
	q.SetColumnar(modelWidth)
	m := newPopModel(capacity)
	qPump := &bulkPump{refillPump: refillPump{rows: rows, rng: rand.New(rand.NewSource(1))}, q: q}
	mPump := &refillPump{rows: rows, rng: rand.New(rand.NewSource(1))}
	var mSeq int64
	refillModel := func(floor time.Duration) {
		for mPump.rows > 0 && !m.full() {
			mSeq++
			m.push(modelSlot(mSeq, mPump.refill(floor)))
		}
	}
	if bulk {
		q.SetProducer(qPump)
	} else {
		q.SetProducer(resumeOnly{qPump})
	}
	qPump.Resume(0)
	refillModel(0)

	var now time.Duration
	for i, b := range in[2:] {
		where := fmt.Sprintf("bulk=%v op %d (%d)", bulk, i, b)
		op, arg := int(b)%7, int(b)/7
		switch {
		case op == 0: // direct push of a run into whatever room the producer left
			room := capacity - q.Len() - q.Debt()
			if room == 0 {
				break
			}
			var direct run
			for n := 1 + arg%room; n > 0; n-- {
				qPump.last += time.Duration(arg%5) * time.Millisecond
				qPump.seq++
				mSeq++
				direct.add(modelSlot(qPump.seq, qPump.last))
				m.push(modelSlot(mSeq, qPump.last))
			}
			mPump.last = qPump.last
			direct.pushTo(q)
		case op == 1: // bulk pop at an instant that may strand late arrivals
			now += time.Duration(arg%6) * time.Millisecond
			if view {
				lent = checkView(t, where, q, m, now, 1+arg%(capacity+2), &rest, lent)
			} else {
				checkPop(t, where, q, m, now, 1+arg%(capacity+2))
			}
		case op == 2 && q.Debt() > 0:
			now += time.Duration(arg%3) * time.Millisecond
			if view {
				checkLent(t, where, lent[:1])
				lent = lent[1:]
			}
			q.Credit(now)
			m.credit()
			refillModel(now)
		case op == 3 && q.Debt() > 0: // give back an unprocessed tail
			n := 1 + arg%q.Debt()
			q.UnpopN(n)
			m.unpopN(n)
			if view {
				rest, lent = 0, lent[:len(lent)-n]
			}
		case op == 4: // CM observation, possibly with a batch in debt
			if got, want := q.ObserveArrivals(now), m.observeArrivals(now); got != want {
				t.Fatalf("%s: ObserveArrivals fed %d, want %d", where, got, want)
			}
		case op == 5:
			q.Settle()
			if q.Deferred() != 0 {
				t.Fatalf("%s: %d credits pending after Settle", where, q.Deferred())
			}
			gotAt, gotOK := q.NextArrival()
			if wantOK := len(m.buf) > 0; gotOK != wantOK || (wantOK && gotAt != m.buf[0].at) {
				t.Fatalf("%s: NextArrival = %v,%v, model has %d buffered", where, gotAt, gotOK, len(m.buf))
			}
		default: // availability probe, possibly back-dated
			at := now - time.Duration(arg)*time.Millisecond
			if at < 0 {
				at = 0
			}
			if got, want := q.Available(at), m.available(at); got != want {
				t.Fatalf("%s: Available(%v) = %d, want %d (pending %d)", where, at, got, want, q.Deferred())
			}
		}
		if q.Deferred() > capacity-q.size-q.debt {
			t.Fatalf("%s: %d pending credits exceed the %d free slots", where, q.Deferred(), capacity-q.size-q.debt)
		}
		if !bulk && q.Deferred() != 0 {
			t.Fatalf("%s: %d credits pending under a Resume-only producer", where, q.Deferred())
		}
		if q.Debt() != len(m.debt) {
			t.Fatalf("%s: Debt = %d, want %d", where, q.Debt(), len(m.debt))
		}
		checkEstimator(t, where, q, m)
	}
	checkState(t, fmt.Sprintf("bulk=%v end", bulk), q, m)
	if qPump.seq != mSeq || qPump.last != mPump.last {
		t.Fatalf("bulk=%v: pumps diverged: queue side at row %d (%v), model side at row %d (%v)",
			bulk, qPump.seq, qPump.last, mSeq, mPump.last)
	}
}
