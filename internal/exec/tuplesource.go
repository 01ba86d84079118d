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

	// pop fills c with up to max tuples available at now, never more than
	// the source's window (a queue) or page (a temp reader), so the chunk's
	// storage is bounded whatever max is. c is the running fragment's
	// cascade chunk (see cascade); c.n == 0 means nothing was available.
	pop(c *chunk, now time.Duration, max int)
}

// chunk is one popped run of a fragment's input: the popped rows' columns,
// at the input node's Live width, and a per-slot pass mask — a wrapper's
// pushdown filter, all true for a temp, which stores only passing slots. A
// passing slot is read into one reused row.
type chunk struct {
	n    int
	cols relation.Batch
	pass []bool
	buf  relation.Tuple
}

// reset empties the chunk for rows of the given width.
func (c *chunk) reset(width int) {
	c.cols.Reset(width)
	c.buf = sized(c.buf, width)
}

// keys returns the chunk's values of column col.
func (c *chunk) keys(col int) []int64 { return c.cols.Col(col) }

// row returns slot i of the chunk read into the reused row, valid only until
// the next call, or nil for a slot the wrapper's pushdown filtered.
func (c *chunk) row(i int) relation.Tuple {
	if !c.pass[i] {
		return nil
	}
	return c.cols.Row(i, c.buf)
}

// cascade is the execution state of whichever fragment is running on a
// mediator: the chunk its input popped, the first probe step's chain heads
// for that chunk, the tuple headers of the probe cascade and the arena
// backing the concatenated rows. The mediator's DQP runs one fragment's
// batch at a time, and a batch drains or unpops its chunk and sinks or
// strands (copies) every output before it yields, so one cascade per
// mediator serves every fragment of every query on it. It lives in the
// mediator's scratch, so its grown storage carries over to the next run.
type cascade struct {
	ch        chunk
	heads     []int32
	cur, next []relation.Tuple
	arena     relation.Arena
}

// queueSource adapts a wrapper queue plus its producing source, and points
// at the wrapper's fault entry when the fault plan names it.
type queueSource struct {
	q   *comm.Queue
	src *source.Source
	flt *faultEntry
}

func (s *queueSource) Available(now time.Duration) int { return s.q.Available(now) }

// NextArrival proxies the queue: the source pumps eagerly, so an empty queue
// means it is exhausted.
func (s *queueSource) NextArrival() (time.Duration, bool) { return s.q.NextArrival() }

// pop reads availability once, in PopColsN, which resets the chunk's batch
// only when it moves slots: process ends every batch with a pop that finds
// nothing has arrived.
func (s *queueSource) pop(c *chunk, now time.Duration, max int) {
	c.pass = sized(c.pass, min(max, s.q.Capacity()))
	if c.n = s.q.PopColsN(now, &c.cols, c.pass); c.n > 0 {
		c.buf = sized(c.buf, s.q.Width())
	}
}

func (s *queueSource) Credit(now time.Duration) { s.q.Credit(now) }

func (s *queueSource) UnpopN(n int) { s.q.UnpopN(n) }

// Exhausted tests the queue first: a non-empty buffer answers without making
// the queue settle its deferred production, which asking the source would.
func (s *queueSource) Exhausted() bool { return s.q.Empty() && s.src.Exhausted() }

func (s *queueSource) Remaining() int { return s.src.Rows() - int(s.q.TotalPopped()) }

// tempSource adapts a temp-relation reader. Credit is a no-op: a temp reader
// has no window protocol, so there is no producer to resume.
type tempSource struct{ *mem.Reader }

func (tempSource) Credit(time.Duration) {}

func (s tempSource) pop(c *chunk, now time.Duration, max int) {
	c.reset(s.Width())
	c.n = s.Pop(now, &c.cols, max)
	c.pass = sized(c.pass, c.n)
	for i := range c.pass {
		c.pass[i] = true
	}
}
