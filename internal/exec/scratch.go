package exec

import (
	"sync"
	"sync/atomic"

	"dqs/internal/comm"
	"dqs/internal/operator"
	"dqs/internal/relation"
)

// Pool size caps. A Scratch holds at most this many recycled objects per
// kind; anything beyond is dropped for the GC, bounding retained memory no
// matter how many configurations a sweep cycles through.
const (
	maxPooledQueues = 64
	maxPooledTables = 64
	maxPooledSlices = 256
)

// Scratch recycles the allocation-heavy execution state of one mediator —
// wrapper queues, hash tables, tuple arenas, temp-relation storage and
// probe-cascade scratch buffers — across runs. NewMediator checks one out
// (getScratch) and Mediator.Reclaim returns it, so repeated runs reuse grown
// storage instead of re-allocating it; pooling recycles only capacity, never
// contents (every object is Reset on checkout), so a run's results do not
// depend on what the Scratch served before.
//
// A Scratch is NOT safe for concurrent use: it serves one mediator at a time.
type Scratch struct {
	queues  []*comm.Queue
	tables  []*operator.HashTable
	ints    [][]int64
	tuples  [][]relation.Tuple
	batches []*relation.Batch
	bools   [][]bool

	// buildRows remembers the exact cardinality of each completed hash-table
	// build, keyed by plan join-node ID, as the pre-size hint for the next
	// run. Plans sharing a pool may collide on IDs; a stale hint only costs
	// allocator behaviour (an over- or under-sized reservation), never
	// results — simulation accounting ignores capacity.
	buildRows map[int]int64
}

// scratchPool hands concurrent mediators (experiment cells, isolated server
// queries) a Scratch each, and lets the GC drop what an idle process no
// longer uses.
var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// lastScratch holds the last reclaimed Scratch outside scratchPool, whose
// Put a Get on another processor never sees: a run the scheduler moved since
// the previous Reclaim would start cold, re-allocating tens of megabytes on
// a full-scale plan. An idle process keeps this one Scratch alive.
var lastScratch atomic.Pointer[Scratch]

// getScratch checks out a new mediator's Scratch: lastScratch's if free,
// else one from scratchPool.
func getScratch() *Scratch {
	if s := lastScratch.Swap(nil); s != nil {
		return s
	}
	return scratchPool.Get().(*Scratch)
}

// putScratch returns a reclaimed Scratch; the one it displaces from
// lastScratch goes to scratchPool.
func putScratch(s *Scratch) {
	if old := lastScratch.Swap(s); old != nil {
		scratchPool.Put(old)
	}
}

// take removes element i from a pool, moving the last one into its place,
// and returns it; i < 0 returns the zero value (nil, for every pool here).
func take[T any](p *[]T, i int) (x T) {
	if i >= 0 {
		last := len(*p) - 1
		x, (*p)[i] = (*p)[i], (*p)[last]
		var zero T
		(*p)[last] = zero
		*p = (*p)[:last]
	}
	return x
}

// pop removes and returns the most recently pooled element, or the zero
// value when the pool is empty.
func pop[T any](p *[]T) T { return take(p, len(*p)-1) }

// putSlice keeps b's storage, length zero, unless it has none or the pool
// is full.
func putSlice[T any](p *[][]T, b []T) {
	if cap(b) > 0 && len(*p) < maxPooledSlices {
		*p = append(*p, b[:0])
	}
}

// The slice pools, one per element type: Get* returns a recycled length-zero
// slice (nil when the pool is empty), Put* reclaims one. The int64 arenas —
// flat tuple storage — make Scratch a mem.IntRecycler with GetIntsCap below;
// tuples are header scratch, bools pass masks.
func (s *Scratch) GetInts() []int64            { return pop(&s.ints) }
func (s *Scratch) PutInts(b []int64)           { putSlice(&s.ints, b) }
func (s *Scratch) GetTuples() []relation.Tuple { return pop(&s.tuples) }
func (s *Scratch) GetBools() []bool            { return pop(&s.bools) }
func (s *Scratch) PutBools(b []bool)           { putSlice(&s.bools, b) }

// PutTuples reclaims a tuple-header scratch slice. The headers are cleared
// so pooled slices don't pin tuple storage from finished runs.
func (s *Scratch) PutTuples(b []relation.Tuple) {
	clear(b[:cap(b)])
	putSlice(&s.tuples, b)
}

// Queue returns a reset queue of the given capacity, recycled when the pool
// holds one of matching capacity (window sizes are sweep parameters, so only
// an exact match preserves the protocol).
func (s *Scratch) Queue(name string, capacity int) *comm.Queue {
	for i := len(s.queues) - 1; i >= 0; i-- {
		if s.queues[i].Capacity() == capacity {
			q := take(&s.queues, i)
			q.Reset(name)
			return q
		}
	}
	return comm.NewQueue(name, capacity)
}

// PutQueue returns a queue to the pool once its run is over.
func (s *Scratch) PutQueue(q *comm.Queue) {
	if q == nil || len(s.queues) >= maxPooledQueues {
		return
	}
	s.queues = append(s.queues, q)
}

// Table returns an empty hash table keyed on keyIdx and reserved for about
// rows tuples of the given width: the smallest pooled table that already
// holds the reservation or, when none does, the smallest of all, so a
// repeated plan's joins get back tables of their own size.
func (s *Scratch) Table(keyIdx, width, rows int) *operator.HashTable {
	best, bestHolds := -1, false
	for i, h := range s.tables {
		holds := h.Holds(width, rows)
		if best < 0 || (holds && !bestHolds) ||
			(holds == bestHolds && h.Footprint() < s.tables[best].Footprint()) {
			best, bestHolds = i, holds
		}
	}
	h := take(&s.tables, best)
	if h == nil {
		h = operator.NewHashTable(keyIdx)
	} else {
		h.Recycle(keyIdx)
	}
	h.Reserve(width, rows)
	return h
}

// PutTable returns a hash table to the pool once its run is over.
func (s *Scratch) PutTable(h *operator.HashTable) {
	if h == nil || len(s.tables) >= maxPooledTables {
		return
	}
	s.tables = append(s.tables, h)
}

// GetIntsCap returns the best-fitting pooled arena of at least the given
// capacity — the smallest one that is big enough — or nil when none
// qualifies; pre-sized temp arenas ask through it.
func (s *Scratch) GetIntsCap(capacity int) []int64 {
	best := -1
	for i, b := range s.ints {
		if cap(b) < capacity {
			continue
		}
		if best < 0 || cap(b) < cap(s.ints[best]) {
			best = i
		}
	}
	return take(&s.ints, best)
}

// GetBatch returns a recycled columnar batch reset to the given width (the
// NextBatch half of the batch recycle contract).
func (s *Scratch) GetBatch(width int) *relation.Batch {
	if b := pop(&s.batches); b != nil {
		b.Reset(width)
		return b
	}
	return relation.NewBatch(width)
}

// PutBatch returns a batch to the pool (the Release half of the contract);
// its grown column capacity is kept for the next run.
func (s *Scratch) PutBatch(b *relation.Batch) {
	if b == nil || len(s.batches) >= maxPooledSlices {
		return
	}
	s.batches = append(s.batches, b)
}

// RecordBuildRows stores the exact cardinality of a completed build as the
// pre-size hint for the next run touching the same join node.
func (s *Scratch) RecordBuildRows(joinID int, rows int64) {
	if s.buildRows == nil {
		s.buildRows = make(map[int]int64)
	}
	s.buildRows[joinID] = rows
}

// BuildRowsHint returns the recorded cardinality of a join's build, if a
// prior run completed it on this pool.
func (s *Scratch) BuildRowsHint(joinID int) (int64, bool) {
	rows, ok := s.buildRows[joinID]
	return rows, ok
}
