package exec

import (
	"time"

	"dqs/internal/comm"
	"dqs/internal/mem"
	"dqs/internal/source"
)

// TupleSource is the input protocol every query fragment shares: wrapper
// queues and temp-relation readers both satisfy it, so the DQP schedules
// pipeline chains, materialization fragments and complement fragments with
// the same machinery, and a fragment consumes either through one loop. pop
// removes a chunk of the tuples available at an instant, borrowing the
// source's storage, and leaves their flow-control slots reserved: the
// consumer must Credit each slot once it is done reading it, at the virtual
// instant its processing started, or return unprocessed ones with UnpopN.
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

	// pop points c at up to max tuples available at now, in the source's
	// own storage: a run of a queue's ring that stops at the ring's end, or
	// of a temp's page. c is the running fragment's cascade chunk (see
	// cascade); c.n == 0 means nothing was available.
	pop(c *chunk, now time.Duration, max int)
}

// chunk is one popped run of a fragment's input, borrowed from its source:
// views of its columns at the input node's Live width, and the wrapper's
// pushdown pass mask (nil for a temp, which stores only passing slots).
type chunk struct {
	n    int
	cols [][]int64
	pass []bool
}

// keys returns the chunk's values of column col.
func (c *chunk) keys(col int) []int64 { return c.cols[col] }

// cascade is the execution state of whichever fragment is running on a
// mediator: the chunk its input popped, the first probe step's chain heads
// for that chunk, and the probe cascade's index buffers — one slot's
// results as build-entry indices (ents, with next the step being built), a
// later step's probe keys and their chain heads (subs), and one chain's
// walk. A result row is never built here: the terminal gathers it from the
// chunk and the tables. The mediator's DQP runs one fragment's batch at a
// time, and a batch drains or unpops its chunk and sinks or strands
// (gathers) every result before it yields, so one cascade per mediator
// serves every fragment of every query on it. It lives in the mediator's
// scratch, so its grown storage carries over to the next run.
type cascade struct {
	ch         chunk
	heads      []int32
	ents, next []int32
	keys       []int64
	subs, walk []int32
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

func (s *queueSource) pop(c *chunk, now time.Duration, max int) {
	c.cols, c.pass = s.q.PopView(now, max, c.cols)
	c.n = len(c.pass)
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
	c.cols, c.n = s.PopView(now, max, c.cols)
	c.pass = nil
}
