package source

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"dqs/internal/comm"
	"dqs/internal/fault"
	"dqs/internal/relation"
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

// resumeOnly hides a source's ResumeN from its queue, so the queue resumes
// it once per credit: the eager reference path.
type resumeOnly struct{ s *Source }

func (p resumeOnly) Resume(now time.Duration) { p.s.Resume(now) }

// deferCase opens one source on q for a deferred-versus-eager comparison;
// from is its first row.
type deferCase struct {
	name string
	from int
	open func(q *comm.Queue, seed int64) (*Source, error)
}

// deferSched is the rate schedule, with an initial delay, that private
// wrappers in a deferCase run under.
var deferSched = []Option{WithPhases(Phase{0, us(2)}, Phase{700, us(40)}, Phase{1400, 0}), WithInitialDelay(us(30))}

// privateOpts returns a private wrapper's options on tab: the schedule,
// every column, plus extra.
func privateOpts(tab *relation.Table, extra ...Option) []Option {
	return append(append(slices.Clone(deferSched), allColumns(tab)), extra...)
}

// matchEager runs the same consumer script against each case's source as the
// queue resumes it in bulk and as forced onto the eager per-credit path
// (behind resumeOnly): every arrival instant, every state read and the final
// outage record, next row and death flag must agree.
func matchEager(t *testing.T, tab *relation.Table, cases []deferCase) {
	t.Helper()
	type run struct {
		arrivals []time.Duration
		reads    []int
		outages  []fault.Outage
		next     int
		dead     bool
	}
	for _, tc := range cases {
		for seed := int64(1); seed <= 5; seed++ {
			build := func(eager bool) run {
				q := newQueue(tab, 24)
				src, err := tc.open(q, seed)
				if err != nil {
					t.Fatal(err)
				}
				if eager {
					q.SetProducer(resumeOnly{src})
				}
				arrivals, reads := consume(t, q, src, tab.Len()-tc.from, seed)
				return run{arrivals, reads, src.Outages(), src.NextRow(), src.Dead()}
			}
			want, got := build(true), build(false)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s seed %d: deferred run diverged from eager:\neager:    %+v\ndeferred: %+v", tc.name, seed, want, got)
			}
		}
	}
}

// TestDeferredSourceMatchesEager: a deferring queue reproduces the eager
// per-credit run exactly, for private wrappers under a rate schedule with an
// initial delay and for taps on a shared stream.
func TestDeferredSourceMatchesEager(t *testing.T) {
	tab := makeTable(t, 2000)
	matchEager(t, tab, []deferCase{
		{"private", 0, func(q *comm.Queue, seed int64) (*Source, error) {
			return New("W", tab, q, sim.NewRNG(seed), us(1), privateOpts(tab)...)
		}},
		{"shared", 0, func(q *comm.Queue, seed int64) (*Source, error) {
			sh, err := NewShared("W", tab, sim.NewRNG(seed), deferSched...)
			if err != nil {
				return nil, err
			}
			return New("W", tab, q, sim.NewRNG(seed), us(1), WithSharedStream(sh), allColumns(tab))
		}},
	})
}

// TestFaultScriptedSourceDefers: a fault-scripted wrapper and an activated
// replica defer like every source — credits stay pending on their queues —
// and their deferred runs, outage records and death flags included, match
// the eager per-credit runs for a stall and a disconnect with restart, and
// for a replica activated mid-stream.
func TestFaultScriptedSourceDefers(t *testing.T) {
	small := makeTable(t, 100)
	q := newQueue(small, 8)
	script := &fault.Script{Clauses: []fault.Clause{{Kind: fault.Stall, Row: 50, Down: us(100)}}, RNG: sim.NewRNG(9)}
	if _, err := New("W", small, q, sim.NewRNG(3), 0, allColumns(small), WithMeanWait(us(5)), WithFaults(script)); err != nil {
		t.Fatal(err)
	}
	at, _ := q.NextArrival()
	n := popN(q, at, 8)
	for i := 0; i < n; i++ {
		q.Credit(at)
	}
	if n == 0 || q.Deferred() != n {
		t.Fatalf("fault-scripted source: popped %d, %d credits pending; want all pending", n, q.Deferred())
	}
	rq := newQueue(small, 8)
	rep, err := New("R", small, rq, sim.NewRNG(4), 0, allColumns(small), WithMeanWait(us(5)), AsStandby())
	if err != nil {
		t.Fatal(err)
	}
	rep.Activate(0, 10, us(20), false)
	at, _ = rq.NextArrival()
	n = popN(rq, at, 8)
	for i := 0; i < n; i++ {
		rq.Credit(at)
	}
	if n == 0 || rq.Deferred() != n {
		t.Fatalf("activated replica: popped %d, %d credits pending; want all pending", n, rq.Deferred())
	}

	tab := makeTable(t, 2000)
	const resumeAt = 600 // the activated replica's first row
	matchEager(t, tab, []deferCase{
		{"fault-scripted", 0, func(q *comm.Queue, seed int64) (*Source, error) {
			script := &fault.Script{Clauses: []fault.Clause{
				{Kind: fault.Stall, Row: 500, Down: us(300)},
				{Kind: fault.Disconnect, Row: 1200, Down: us(200), Restart: true},
			}, RNG: sim.NewRNG(seed + 100)}
			return New("W", tab, q, sim.NewRNG(seed), us(1), privateOpts(tab, WithFaults(script))...)
		}},
		{"activated replica", resumeAt, func(q *comm.Queue, seed int64) (*Source, error) {
			rep, err := New("R", tab, q, sim.NewRNG(seed), us(1), privateOpts(tab, AsStandby())...)
			if err != nil {
				return nil, err
			}
			rep.Activate(us(50), resumeAt, us(20), seed%2 == 0)
			return rep, nil
		}},
	})
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
