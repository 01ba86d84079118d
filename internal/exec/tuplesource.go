package exec

import (
	"fmt"
	"time"

	"dqs/internal/comm"
	"dqs/internal/mem"
	"dqs/internal/relation"
	"dqs/internal/source"
)

// TupleSource is the input protocol every query fragment shares: wrapper
// queues and temp-relation readers both satisfy it, so the DQP schedules
// pipeline chains, materialization fragments and complement fragments with
// the same machinery, and a fragment consumes either through one loop. pop
// removes a chunk of the tuples available at an instant and leaves their
// flow-control slots reserved: the consumer must Credit each slot at the
// virtual instant it processes it, or return unprocessed ones with UnpopN.
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

	// pop removes up to max tuples available at now as one chunk, never
	// more than the source's window (a queue) or page (a temp reader), so
	// the staging it allocates is bounded whatever max is. The chunk lives
	// in the source's staging until the next pop.
	pop(now time.Duration, max int) *chunk
}

// chunk is one popped run of a fragment's input, in whichever layout its
// source produced. A temp chunk holds row views into the reader's arena. A
// wrapper chunk holds the popped columns and the pushdown pass mask, and
// gathers one passing slot at a time into a reused row of full scan width;
// the row's dead (projected-away) positions are never written, so they
// stay zero.
type chunk struct {
	n      int
	rows   []relation.Tuple // temp: the popped rows
	keyBuf []int64          // temp: staged key column

	cols *relation.Batch // wrapper: the popped live columns
	pass []bool          // wrapper: per-slot pushdown mask
	at   []int           // wrapper: full-schema position of each batch column
	full relation.Tuple  // wrapper: the reused gather row
}

// keys returns the chunk's values of full-schema column col. A wrapper
// chunk must carry col live, which liveColumns guarantees for every join
// key.
func (c *chunk) keys(col int) []int64 {
	if c.cols == nil {
		c.keyBuf = sized(c.keyBuf, c.n)
		for i, t := range c.rows[:c.n] {
			c.keyBuf[i] = t[col]
		}
		return c.keyBuf
	}
	for b, p := range c.at {
		if p == col {
			return c.cols.Col(b)
		}
	}
	panic(fmt.Sprintf("exec: column %d is not live on the wire", col))
}

// row returns slot i of the chunk, or nil for a slot the wrapper's
// pushdown filtered. A wrapper slot is gathered into the reused row, so it
// is valid only until the next call.
func (c *chunk) row(i int) relation.Tuple {
	if c.cols == nil {
		return c.rows[i]
	}
	return c.gather(i)
}

// gather is row's wrapper half, kept out of line so the temp half inlines
// into the fragment loop.
//
//go:noinline
func (c *chunk) gather(i int) relation.Tuple {
	if !c.pass[i] {
		return nil
	}
	c.cols.Gather(i, c.full, c.at)
	return c.full
}

// reclaim hands the chunk's staging back to s. Idempotent.
func (c *chunk) reclaim(s *Scratch) {
	s.PutTuples(c.rows)
	s.PutKeys(c.keyBuf)
	s.PutBatch(c.cols)
	s.PutBools(c.pass)
	*c = chunk{}
}

// queueSource adapts a wrapper queue plus its producing source. Its chunk
// staging is shared by every fragment the wrapper feeds: a fragment drains
// or unpops a chunk before it yields.
type queueSource struct {
	q      *comm.Queue
	src    *source.Source
	popped int
	ch     chunk
}

func (s *queueSource) Available(now time.Duration) int { return s.q.Available(now) }

// NextArrival proxies the queue: the source pumps eagerly, so an empty queue
// means it is exhausted.
func (s *queueSource) NextArrival() (time.Duration, bool) { return s.q.NextArrival() }

func (s *queueSource) pop(now time.Duration, max int) *chunk {
	c := &s.ch
	c.pass = sized(c.pass, min(max, s.q.Capacity()))
	c.cols.Reset(len(c.at))
	c.n = s.q.PopColsN(now, c.cols, c.pass)
	s.popped += c.n
	return c
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
type tempSource struct {
	*mem.Reader
	page int // tuples per page: the most one pop can return
	ch   chunk
}

func (*tempSource) Credit(time.Duration) {}

func (s *tempSource) pop(now time.Duration, max int) *chunk {
	c := &s.ch
	c.rows = sized(c.rows, min(max, s.page))
	c.n = s.PopN(now, c.rows)
	return c
}
