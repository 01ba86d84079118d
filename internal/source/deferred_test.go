package source

import (
	"math/rand"
	"testing"
	"time"

	"dqs/internal/comm"
	"dqs/internal/fault"
	"dqs/internal/sim"
)

// consume drains q the way a fragment does — bulk pop of what has arrived,
// one credit per slot at advancing instants, now and then handing a tail
// back — under a script drawn from seed, and returns every arrival instant
// it saw plus the source state it read on the way.
func consume(t *testing.T, q *comm.Queue, src *Source, rows int, seed int64) (arrivals []time.Duration, reads []int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var now time.Duration
	popped := 0
	for popped < rows {
		n := popN(q, now, 1+rng.Intn(16))
		if n == 0 {
			at, ok := q.NextArrival()
			if !ok {
				t.Fatalf("queue dry after %d of %d rows", popped, rows)
			}
			arrivals = append(arrivals, at)
			now = at
			continue
		}
		credit := n
		if rng.Intn(4) == 0 {
			credit = rng.Intn(n + 1)
		}
		for i := 0; i < credit; i++ {
			now += time.Duration(rng.Intn(3)) * time.Microsecond
			q.Credit(now)
		}
		q.UnpopN(n - credit)
		popped += credit
		switch rng.Intn(6) {
		case 0:
			reads = append(reads, src.NextRow())
		case 1:
			if src.Blocked() {
				reads = append(reads, -1)
			} else {
				reads = append(reads, -2)
			}
		}
	}
	if !src.Exhausted() || !q.Empty() {
		t.Fatalf("drained %d rows but Exhausted=%v Empty=%v", popped, src.Exhausted(), q.Empty())
	}
	return arrivals, reads
}

// TestDeferredSourceMatchesEager runs the same consumer script against a
// source the queue resumes in bulk and against one forced onto the eager
// per-credit path (behind eagerProducer, which hides its ResumeN): every arrival instant and every state read must agree —
// private wrappers under a rate schedule with an initial delay, and taps on
// a shared stream.
func TestDeferredSourceMatchesEager(t *testing.T) {
	const rows = 2000
	tab := makeTable(t, rows)
	for _, shared := range []bool{false, true} {
		for seed := int64(1); seed <= 5; seed++ {
			build := func(eager bool) ([]time.Duration, []int, *comm.Queue) {
				opts := []Option{WithPhases(Phase{0, us(2)}, Phase{700, us(40)}, Phase{1400, 0}), WithInitialDelay(us(30))}
				if shared {
					sh, err := NewShared("W", tab, sim.NewRNG(seed), opts...)
					if err != nil {
						t.Fatal(err)
					}
					opts = []Option{WithSharedStream(sh)}
				}
				q := newQueue(tab, 24)
				src, err := New("W", tab, q, sim.NewRNG(seed), us(1), append(opts, allColumns(tab))...)
				if err != nil {
					t.Fatal(err)
				}
				if eager {
					q.SetProducer(eagerProducer{src})
				}
				arrivals, reads := consume(t, q, src, rows, seed)
				return arrivals, reads, q
			}
			wantAt, wantReads, _ := build(true)
			gotAt, gotReads, _ := build(false)
			if len(gotAt) != len(wantAt) || len(gotReads) != len(wantReads) {
				t.Fatalf("shared=%v seed %d: %d stalls and %d reads deferred, %d and %d eager",
					shared, seed, len(gotAt), len(gotReads), len(wantAt), len(wantReads))
			}
			for i := range wantAt {
				if gotAt[i] != wantAt[i] {
					t.Fatalf("shared=%v seed %d: stall %d ends at %v deferred, %v eager", shared, seed, i, gotAt[i], wantAt[i])
				}
			}
			for i := range wantReads {
				if gotReads[i] != wantReads[i] {
					t.Fatalf("shared=%v seed %d: state read %d = %d deferred, %d eager", shared, seed, i, gotReads[i], wantReads[i])
				}
			}
		}
	}
}

// TestDeferralEngagesAndSettlesOnDetach pins both ends of the mechanism: a
// plain source leaves credits pending on its queue (the deferral is really
// on), a detach settles them first — credits granted before the detach
// still produce, exactly as they would have eagerly — and nothing produces
// afterwards.
func TestDeferralEngagesAndSettlesOnDetach(t *testing.T) {
	tab := makeTable(t, 100)
	q := newQueue(tab, 8)
	src, err := New("W", tab, q, sim.NewRNG(3), 0, allColumns(tab), WithMeanWait(us(5)))
	if err != nil {
		t.Fatal(err)
	}
	// Pop only part of the window: the rest stays buffered with arrivals in
	// the future of the credit instants, so nothing forces a settle.
	at, _ := q.NextArrival()
	n := popN(q, at, 8)
	if n == 0 || n == 8 {
		t.Fatalf("popped %d of 8 at the first arrival; the test needs a partial pop", n)
	}
	for i := 0; i < n; i++ {
		q.Credit(at)
	}
	if q.Deferred() != n {
		t.Fatalf("%d credits pending after %d credits on a plain source", q.Deferred(), n)
	}
	src.Detach()
	if q.Deferred() != 0 || q.Len() != 8 || src.NextRow() != 8+n {
		t.Fatalf("detach left %d pending, %d buffered, next row %d; want 0, 8, %d", q.Deferred(), q.Len(), src.NextRow(), 8+n)
	}
	far := time.Hour
	if got := popN(q, far, 8); got != 8 {
		t.Fatalf("popped %d after detach, want the full window", got)
	}
	for i := 0; i < 8; i++ {
		q.Credit(far)
	}
	if !q.Empty() || src.NextRow() != 8+n {
		t.Errorf("a detached source produced: Empty=%v next row %d", q.Empty(), src.NextRow())
	}
}

// TestFaultScriptedSourceStaysEager: the resilience layer reads a faulted
// source's outages and death between iterations, so such a source — and an
// activated replica — never has credits pending.
func TestFaultScriptedSourceStaysEager(t *testing.T) {
	tab := makeTable(t, 100)
	q := newQueue(tab, 8)
	script := &fault.Script{Clauses: []fault.Clause{{Kind: fault.Stall, Row: 50, Down: us(100)}}, RNG: sim.NewRNG(9)}
	if _, err := New("W", tab, q, sim.NewRNG(3), 0, allColumns(tab), WithMeanWait(us(5)), WithFaults(script)); err != nil {
		t.Fatal(err)
	}
	at, _ := q.NextArrival()
	n := popN(q, at, 8)
	for i := 0; i < n; i++ {
		q.Credit(at)
		if q.Deferred() != 0 {
			t.Fatalf("credit %d left %d pending on a fault-scripted source", i, q.Deferred())
		}
	}
	rq := newQueue(tab, 8)
	rep, err := New("R", tab, rq, sim.NewRNG(4), 0, allColumns(tab), WithMeanWait(us(5)), AsStandby())
	if err != nil {
		t.Fatal(err)
	}
	rep.Activate(0, 10, us(20), false)
	at, _ = rq.NextArrival()
	n = popN(rq, at, 8)
	for i := 0; i < n; i++ {
		rq.Credit(at)
	}
	if n == 0 || rq.Deferred() != 0 {
		t.Fatalf("activated replica: popped %d, %d credits pending", n, rq.Deferred())
	}
}
