package comm

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"dqs/internal/relation"
)

// ratePump is a wrapper whose delivery rate the fuzzer can change: each
// refill arrives a random 0-5 steps of scale after its credit's floor. As a
// bulkProducer it stages a run of credits' refills into one PushColsN.
type ratePump struct {
	q     *Queue
	rows  int
	last  time.Duration
	scale time.Duration
	seq   int64
	rng   *rand.Rand
	run   run
}

func (p *ratePump) Resume(now time.Duration) { p.ResumeN([]time.Duration{now}) }

func (p *ratePump) ResumeN(floors []time.Duration) {
	for i, floor := range floors {
		owed := len(floors) - 1 - i
		for p.rows > 0 && p.q.size+p.q.debt+len(p.run.at)+owed < p.q.capacity {
			p.rows--
			p.seq++
			p.last = max(p.last, floor+time.Duration(p.rng.Intn(6))*p.scale)
			p.run.add(modelSlot(p.seq, p.last))
		}
	}
	p.run.pushTo(p.q)
}

// eagerRate hides a ratePump's ResumeN: its queue resumes it per credit.
type eagerRate struct{ p *ratePump }

func (e eagerRate) Resume(now time.Duration) { e.p.Resume(now) }

// cmWrapper is one wrapper of the Observe fuzzer, run twice in lockstep:
// rq is held by the Manager under test, mq by the model, which feeds every
// queue at every observation and judges with significantChange itself.
type cmWrapper struct {
	name    string
	rq, mq  *Queue
	rp, mp  *ratePump
	planned time.Duration
	hasPlan bool
	verdict bool
	batch   *relation.Batch
	pass    []bool
}

// FuzzManagerObserve runs several wrappers under one Manager against a
// model that visits every queue at every Observe. Byte 0 picks the initial
// wrapper count, byte 1 the window and which wrappers defer production;
// every further byte is one op — a direct push, a pop, a credit, an unpop,
// a settle, an Observe, a SnapshotPlanned, a clock advance, an Adopt or
// Drop, a delivery-rate change, or a run of consume-and-observe rounds —
// with its argument. After every op the due index must bound every queue's
// next due instant from below, and after every Observe each queue's feed
// cursor, estimate, verdict and Settle replays must equal the model's, no
// queue may be left with something due, and RateChanged must name the
// model's first changed wrapper.
func FuzzManagerObserve(f *testing.F) {
	f.Add([]byte{2, 12, 10, 10, 5, 6, 10, 10, 107, 10, 9, 5, 1, 2, 3, 5})
	f.Add([]byte{3, 40, 10, 6, 97, 10, 10, 8, 19, 10, 1, 3, 5, 4, 5, 8, 30, 10})
	f.Add([]byte{1, 8, 0, 5, 1, 5, 3, 5, 2, 7, 5, 4, 5})
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 2 {
			return
		}
		fuzzManagerObserve(t, in)
	})
}

func fuzzManagerObserve(t *testing.T, in []byte) {
	capacity := 1 + int(in[1])%9
	eager := int(in[1]) / 9
	m := NewManager()
	var now time.Duration
	var ws []*cmWrapper
	adopted := 0
	// adopt starts a wrapper; a primed one has pumped its first window
	// before the CM adopts its queue.
	adopt := func(name string, primed bool) {
		if slices.ContainsFunc(ws, func(w *cmWrapper) bool { return w.name == name }) {
			return
		}
		w := &cmWrapper{name: name, rq: NewQueue(name, capacity), mq: NewQueue(name, capacity),
			batch: relation.NewBatch(modelWidth), pass: make([]bool, capacity)}
		for _, q := range []*Queue{w.rq, w.mq} {
			q.SetColumnar(modelWidth)
			p := &ratePump{q: q, rows: 4000, scale: 100 * time.Microsecond,
				rng: rand.New(rand.NewSource(int64(len(ws) + adopted)))}
			if q == w.rq {
				w.rp = p
			} else {
				w.mp = p
			}
			if eager>>(adopted%8)&1 == 1 {
				q.SetProducer(eagerRate{p})
			} else {
				q.SetProducer(p)
			}
		}
		adopted++
		if primed {
			w.rp.Resume(now)
		}
		m.Adopt(w.rq)
		if !primed {
			w.rp.Resume(now)
		}
		w.mp.Resume(now)
		ws = append(ws, w)
		slices.SortFunc(ws, func(a, b *cmWrapper) int { return strings.Compare(a.name, b.name) })
	}
	for i := 0; i < 1+int(in[0])%4; i++ {
		adopt(fmt.Sprintf("w%d", i), false)
	}

	observe := func(where string) {
		m.Observe(now)
		for _, w := range ws {
			if w.mq.ObserveArrivals(now) > 0 {
				cur, ok := w.mq.EstimatedWait()
				w.verdict = ok && w.mq.Observations() >= minObservations && w.hasPlan &&
					significantChange(w.planned, cur)
			}
		}
		want := ""
		for _, w := range ws {
			r, q := w.rq, w.mq
			if r.fed != q.fed || r.est != q.est || r.rate.changed != w.verdict || r.replays != q.replays {
				t.Fatalf("%s: %s: fed %d est %+v verdict %v replays %d; the model has fed %d est %+v verdict %v replays %d",
					where, w.name, r.fed, r.est, r.rate.changed, r.replays, q.fed, q.est, w.verdict, q.replays)
			}
			if d := r.nextDue(); d <= now {
				t.Fatalf("%s: %s is still due at %v after Observe(%v)", where, w.name, d, now)
			}
			if w.verdict && want == "" {
				want = w.name
			}
		}
		if got := m.RateChanged(); got != want {
			t.Fatalf("%s: RateChanged = %q, the model says %q", where, got, want)
		}
	}
	pop := func(w *cmWrapper, k int) int {
		n := w.rq.PopColsN(now, w.batch, w.pass[:k])
		if got := w.mq.PopColsN(now, w.batch, w.pass[:k]); got != n {
			t.Fatalf("%s: popped %d, the model %d", w.name, n, got)
		}
		return n
	}

	for i, b := range in[2:] {
		where := fmt.Sprintf("op %d (%d)", i, b)
		op, arg := int(b)%11, int(b)/11
		w := ws[arg%len(ws)]
		switch op {
		case 0: // direct push of a run into whatever room the producer left
			room := capacity - w.rq.size - w.rq.debt
			if room == 0 {
				break
			}
			for _, p := range []*ratePump{w.rp, w.mp} {
				for n := 1 + arg%room; n > 0; n-- {
					p.seq++
					p.last += time.Duration(arg%5) * p.scale
					p.run.add(modelSlot(p.seq, p.last))
				}
				p.run.pushTo(p.q)
			}
		case 1:
			pop(w, 1+arg%capacity)
		case 2:
			if w.rq.Debt() > 0 {
				w.rq.Credit(now)
				w.mq.Credit(now)
			}
		case 3:
			if w.rq.Debt() > 0 {
				n := 1 + arg%w.rq.Debt()
				w.rq.UnpopN(n)
				w.mq.UnpopN(n)
			}
		case 4:
			w.rq.Settle()
			w.mq.Settle()
		case 5:
			observe(where)
		case 6:
			fallback := time.Duration(1+arg%8) * 250 * time.Microsecond
			m.SnapshotPlanned(fallback)
			for _, w := range ws {
				w.planned, w.hasPlan, w.verdict = fallback, true, false
				if est, ok := w.mq.EstimatedWait(); ok {
					w.planned = est
				}
			}
		case 7:
			now += time.Duration(arg) * 250 * time.Microsecond
		case 8:
			if arg%2 == 0 && len(ws) > 1 {
				m.Drop(w.rq)
				ws = slices.DeleteFunc(ws, func(x *cmWrapper) bool { return x == w })
			} else if len(ws) < 6 {
				adopt(fmt.Sprintf("w%d", arg%10), arg%4 == 1)
			}
		case 9: // the wrapper's delivery rate changes
			w.rp.scale = time.Duration(1+arg%8) * 100 * time.Microsecond
			w.mp.scale = w.rp.scale
		case 10: // rounds of the engine's loop: observe, then consume
			for round := 0; round < 8+2*arg; round++ {
				now += 500 * time.Microsecond
				observe(fmt.Sprintf("%s round %d", where, round))
				for _, w := range ws {
					for n := pop(w, capacity); n > 0; n-- {
						w.rq.Credit(now)
						w.mq.Credit(now)
					}
				}
			}
		}
		checkDueIndex(t, where, m)
	}
}

// checkDueIndex requires the CM's due index to hold one entry per live
// queue, in scan order, each a lower bound on its queue's next due instant,
// and its least bound to be no later than any of them.
func checkDueIndex(t *testing.T, where string, m *Manager) {
	t.Helper()
	if len(m.due) != len(m.ordered) {
		t.Fatalf("%s: %d queues, %d due entries", where, len(m.ordered), len(m.due))
	}
	for i, q := range m.ordered {
		if q.cm != m || q.slot != i {
			t.Fatalf("%s: %s is at %d but records slot %d", where, q.name, i, q.slot)
		}
		if d := q.nextDue(); m.due[i] > d {
			t.Fatalf("%s: %s is due at %v but the index says %v", where, q.name, d, m.due[i])
		}
		if m.next > m.due[i] {
			t.Fatalf("%s: least bound %v is later than %s's %v", where, m.next, q.name, m.due[i])
		}
	}
}
