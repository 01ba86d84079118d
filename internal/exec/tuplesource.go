package exec

import (
	"time"

	"dqs/internal/comm"
	"dqs/internal/mem"
	"dqs/internal/relation"
	"dqs/internal/source"
)

// TupleSource is the uniform input protocol of a query fragment: wrapper
// queues and temp-relation readers both satisfy it, so the DQP schedules
// pipeline chains, materialization fragments and complement fragments with
// the same machinery.
type TupleSource interface {
	// Available returns how many tuples can be popped at virtual time now.
	Available(now time.Duration) int
	// NextArrival returns when the next tuple becomes available; false
	// means no tuple will ever arrive again.
	NextArrival() (time.Duration, bool)
	// Pop consumes the next tuple; only legal when Available(now) > 0.
	Pop(now time.Duration) relation.Tuple
	// PopN bulk-consumes up to len(dst) available tuples into dst without
	// releasing their flow-control slots; the consumer must Credit each
	// tuple at the virtual instant it processes it (or return unprocessed
	// ones with UnpopN). Implementations may return fewer tuples than are
	// available — temp readers chunk at page boundaries so I/O charges land
	// on the same instants as per-tuple consumption.
	PopN(now time.Duration, dst []relation.Tuple) int
	// Credit releases one PopN'd tuple's flow-control slot at time now.
	Credit(now time.Duration)
	// UnpopN returns the newest n uncredited tuples to the source.
	UnpopN(n int)
	// Exhausted reports that every tuple has been consumed.
	Exhausted() bool
	// Remaining returns the number of tuples not yet consumed.
	Remaining() int
}

// queueSource adapts a wrapper queue plus its producing source.
type queueSource struct {
	q      *comm.Queue
	src    *source.Source
	popped int
}

// newQueueSource wires a queue/source pair into a TupleSource.
func newQueueSource(q *comm.Queue, src *source.Source) *queueSource {
	return &queueSource{q: q, src: src}
}

func (s *queueSource) Available(now time.Duration) int { return s.q.Available(now) }

func (s *queueSource) NextArrival() (time.Duration, bool) {
	if at, ok := s.q.NextArrival(); ok {
		return at, true
	}
	// The source pumps eagerly, so an empty queue means it is exhausted.
	return 0, false
}

func (s *queueSource) Pop(now time.Duration) relation.Tuple {
	s.popped++
	return s.q.Pop(now)
}

func (s *queueSource) PopN(now time.Duration, dst []relation.Tuple) int {
	n := s.q.PopN(now, dst)
	s.popped += n
	return n
}

// Columnar reports whether the underlying queue transfers columnar batches.
func (s *queueSource) Columnar() bool { return s.q.Columnar() }

// PopBatch is the columnar PopN: it bulk-consumes up to len(pass) arrived
// slots as flat column runs appended to dst, with the pushdown pass mask in
// pass. Slot accounting (debt, credits, estimator feeds) is identical to
// PopN, so the consumer owes a Credit per slot — filtered ones included.
func (s *queueSource) PopBatch(now time.Duration, dst *relation.Batch, pass []bool) int {
	n := s.q.PopColsN(now, dst, pass)
	s.popped += n
	return n
}

func (s *queueSource) Credit(now time.Duration) { s.q.Credit(now) }

func (s *queueSource) UnpopN(n int) {
	s.q.UnpopN(n)
	s.popped -= n
}

// Exhausted tests the queue first: a non-empty buffer answers without making
// the queue settle its deferred production, which asking the source would.
func (s *queueSource) Exhausted() bool { return s.q.Empty() && s.src.Exhausted() }

func (s *queueSource) Remaining() int { return s.src.Rows() - s.popped }

// swap replaces the producing source behind the queue — failover handed the
// stream to a replica. The queue itself (and its buffered tuples) carries
// over; only the producer consulted for exhaustion changes.
func (s *queueSource) swap(src *source.Source) { s.src = src }

// tempSource adapts a temp-relation reader; mem.Reader implements the
// bulk protocol natively, and Credit is a no-op: a temp reader has no
// window protocol, so there is no producer to resume.
type tempSource struct{ *mem.Reader }

func (tempSource) Credit(time.Duration) {}

var (
	_ TupleSource = (*queueSource)(nil)
	_ TupleSource = tempSource{}
)
