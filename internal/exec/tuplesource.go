package exec

import (
	"time"

	"dqs/internal/comm"
	"dqs/internal/mem"
	"dqs/internal/relation"
	"dqs/internal/source"
)

// TupleSource is the input protocol every query fragment shares: wrapper
// queues and temp-relation readers both satisfy it, so the DQP schedules
// pipeline chains, materialization fragments and complement fragments with
// the same machinery. Consumption itself is input-specific — a wrapper queue
// hands out columnar batches (queueSource.PopBatch), a temp reader rows
// (mem.Reader.PopN) — and either way leaves the popped tuples' flow-control
// slots reserved: the consumer must Credit each tuple at the virtual instant
// it processes it, or return unprocessed ones with UnpopN.
type TupleSource interface {
	// Available returns how many tuples can be popped at virtual time now.
	Available(now time.Duration) int
	// NextArrival returns when the next tuple becomes available; false
	// means no tuple will ever arrive again.
	NextArrival() (time.Duration, bool)
	// Credit releases one popped tuple's flow-control slot at time now.
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

// NextArrival proxies the queue: the source pumps eagerly, so an empty queue
// means it is exhausted.
func (s *queueSource) NextArrival() (time.Duration, bool) { return s.q.NextArrival() }

// PopBatch bulk-consumes up to len(pass) arrived slots as flat column runs
// appended to dst, with the pushdown pass mask in pass. The consumer owes a
// Credit per slot — filtered ones included.
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

// tempSource adapts a temp-relation reader. Credit is a no-op: a temp reader
// has no window protocol, so there is no producer to resume.
type tempSource struct{ *mem.Reader }

func (tempSource) Credit(time.Duration) {}

var (
	_ TupleSource = (*queueSource)(nil)
	_ TupleSource = tempSource{}
)
