package exec

import (
	"sync"
	"sync/atomic"
	"time"

	"dqs/internal/comm"
	"dqs/internal/operator"
	"dqs/internal/relation"
	"dqs/internal/sim"
)

// Scratch recycles the allocation-heavy execution state of one mediator —
// wrapper queues, hash tables, tuple arenas, temp-relation storage,
// probe-cascade scratch buffers, shared-stream schedules, wrapper staging
// buffers and RNG streams — across runs. NewMediator checks one out
// (getScratch) and Mediator.Reclaim returns it, so repeated runs reuse grown
// storage instead of re-allocating it; pooling recycles only capacity, never
// contents (every object is reset or overwritten on checkout), so a run's
// results do not depend on what the Scratch served before.
//
// Retention. A Scratch keeps every object its mediators return and drops
// leftovers only when they are shown to be stale: when a checkout had to
// allocate an object of some kind because nothing pooled fitted (a queue of
// another capacity, an arena too small), every pooled object of that kind
// it left untouched is dropped at Reclaim. So a Scratch never holds more
// objects of a kind than the last mediator that allocated one of that kind
// had checked out, and for the kinds handed out without regard to size,
// never more than its mediators ever had out at once.
//
// A Scratch is NOT safe for concurrent use: it serves one mediator at a time.
type Scratch struct {
	queues  pool[*comm.Queue]
	tables  pool[*operator.HashTable]
	temps   pool[[]int64] // temp-relation tuple storage, handed out best-fit
	ints    pool[[]int64] // fragment and join-network arenas
	tuples  pool[[]relation.Tuple]
	batches pool[*relation.Batch]
	bools   pool[[]bool]
	keys    pool[[]int64]
	heads   pool[[]int32]
	times   pool[[]time.Duration] // stream schedules and wrapper staging, best-fit
	rngs    pool[*sim.RNG]

	// buildRows remembers the exact cardinality of each completed hash-table
	// build, keyed by plan join-node ID, as the pre-size hint for the next
	// run. Plans sharing a pool may collide on IDs; a stale hint only costs
	// allocator behaviour (an over- or under-sized reservation), never
	// results — simulation accounting ignores capacity.
	buildRows map[int]int64
}

// pool holds the idle objects of one kind: idle those returned during the
// current checkout, stale those idle since before it. missed records that
// the checkout found nothing fitting and its caller allocated.
type pool[T any] struct {
	idle, stale []T
	missed      bool
}

func (p *pool[T]) put(x T) { p.idle = append(p.idle, x) }

// pop takes the most recently pooled object, or records a miss and returns
// the zero value (nil, for every pool here).
func (p *pool[T]) pop() (x T) {
	switch {
	case len(p.idle) > 0:
		return cut(&p.idle, len(p.idle)-1)
	case len(p.stale) > 0:
		return cut(&p.stale, len(p.stale)-1)
	}
	p.missed = true
	return x
}

// best takes the pooled object that fits and that no other fitting object
// is better than, or records a miss and returns the zero value.
func (p *pool[T]) best(fits func(T) bool, better func(a, b T) bool) (x T) {
	var from *[]T
	at := -1
	for _, s := range [...]*[]T{&p.idle, &p.stale} {
		for i, y := range *s {
			if fits(y) && (at < 0 || better(y, (*from)[at])) {
				from, at = s, i
			}
		}
	}
	if at < 0 {
		p.missed = true
		return x
	}
	return cut(from, at)
}

// settle ends a checkout: after a miss the stale objects are dropped, and
// everything idle now is stale to the next checkout.
func (p *pool[T]) settle() {
	if p.missed {
		clear(p.stale)
		p.stale = p.stale[:0]
	}
	p.stale = append(p.stale, p.idle...)
	clear(p.idle)
	p.idle, p.missed = p.idle[:0], false
}

// cut removes element i of s, moving the last one into its place.
func cut[T any](s *[]T, i int) T {
	last := len(*s) - 1
	x := (*s)[i]
	(*s)[i] = (*s)[last]
	var zero T
	(*s)[last] = zero
	*s = (*s)[:last]
	return x
}

// putSlice pools b's storage, length zero, unless it has none.
func putSlice[T any](p *pool[[]T], b []T) {
	if cap(b) > 0 {
		p.put(b[:0])
	}
}

// bestSlice takes the smallest pooled slice of at least the given capacity.
func bestSlice[T any](p *pool[[]T], capacity int) []T {
	return p.best(func(b []T) bool { return cap(b) >= capacity },
		func(a, b []T) bool { return cap(a) < cap(b) })
}

// settle ends a mediator's checkout of s (see the retention rule above).
func (s *Scratch) settle() {
	s.queues.settle()
	s.tables.settle()
	s.temps.settle()
	s.ints.settle()
	s.tuples.settle()
	s.batches.settle()
	s.bools.settle()
	s.keys.settle()
	s.heads.settle()
	s.times.settle()
	s.rngs.settle()
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

// putScratch returns a reclaimed Scratch, ending its checkout; the one it
// displaces from lastScratch goes to scratchPool.
func putScratch(s *Scratch) {
	s.settle()
	if old := lastScratch.Swap(s); old != nil {
		scratchPool.Put(old)
	}
}

// The slice pools, one per element type: Get* returns a recycled length-zero
// slice (nil when the pool is empty), Put* reclaims one. The int64 arenas
// back fragment and join-network scratch tuples (temp-relation storage has
// its own pool, below); tuples are header scratch, bools pass masks and
// wrapper staging, keys and heads a fragment's chunk of probe keys and their
// chain heads (kept apart from the arenas so they never take an arena's
// place).
func (s *Scratch) GetInts() []int64            { return s.ints.pop() }
func (s *Scratch) PutInts(b []int64)           { putSlice(&s.ints, b) }
func (s *Scratch) GetTuples() []relation.Tuple { return s.tuples.pop() }
func (s *Scratch) GetBools() []bool            { return s.bools.pop() }
func (s *Scratch) PutBools(b []bool)           { putSlice(&s.bools, b) }
func (s *Scratch) GetKeys() []int64            { return s.keys.pop() }
func (s *Scratch) PutKeys(b []int64)           { putSlice(&s.keys, b) }
func (s *Scratch) GetHeads() []int32           { return s.heads.pop() }
func (s *Scratch) PutHeads(b []int32)          { putSlice(&s.heads, b) }

// PutTuples reclaims a tuple-header scratch slice. The headers are cleared
// so pooled slices don't pin tuple storage from finished runs.
func (s *Scratch) PutTuples(b []relation.Tuple) {
	clear(b[:cap(b)])
	putSlice(&s.tuples, b)
}

// GetTempInts returns the best-fitting pooled temp-relation arena of at
// least the given capacity — the smallest one that is big enough — or nil
// when none qualifies. With PutTempInts it makes Scratch a mem.IntRecycler.
func (s *Scratch) GetTempInts(capacity int) []int64 { return bestSlice(&s.temps, capacity) }

// PutTempInts reclaims a temp relation's arena.
func (s *Scratch) PutTempInts(b []int64) { putSlice(&s.temps, b) }

// GetTimes returns the best-fitting pooled []time.Duration of at least the
// given capacity, or nil. With PutTimes, GetBools and PutBools it makes
// Scratch a source.Recycler: shared-stream schedules and wrapper staging.
func (s *Scratch) GetTimes(capacity int) []time.Duration { return bestSlice(&s.times, capacity) }

// PutTimes reclaims a schedule or staging buffer.
func (s *Scratch) PutTimes(b []time.Duration) { putSlice(&s.times, b) }

// RNG returns a generator seeded with seed: a recycled one reseeded, which
// draws exactly the stream sim.NewRNG(seed) would, else a new one.
func (s *Scratch) RNG(seed int64) *sim.RNG {
	if g := s.rngs.pop(); g != nil {
		g.Seed(seed)
		return g
	}
	return sim.NewRNG(seed)
}

// PutRNG reclaims a generator once its run is over.
func (s *Scratch) PutRNG(g *sim.RNG) { s.rngs.put(g) }

// Queue returns a reset queue of the given capacity whose ring carries width
// live columns, recycled when the pool holds one of matching capacity
// (window sizes are sweep parameters, so only an exact match preserves the
// protocol): the narrowest that already holds width columns, else the
// widest.
func (s *Scratch) Queue(name string, capacity, width int) *comm.Queue {
	q := s.queues.best(func(q *comm.Queue) bool { return q.Capacity() == capacity },
		func(a, b *comm.Queue) bool {
			ha, hb := a.ColumnCapacity() >= width, b.ColumnCapacity() >= width
			if ha != hb {
				return ha
			}
			if ha {
				return a.ColumnCapacity() < b.ColumnCapacity()
			}
			return a.ColumnCapacity() > b.ColumnCapacity()
		})
	if q == nil {
		q = comm.NewQueue(name, capacity)
	} else {
		q.Reset(name)
	}
	q.SetColumnar(width)
	return q
}

// PutQueue returns a queue to the pool once its run is over.
func (s *Scratch) PutQueue(q *comm.Queue) {
	if q != nil {
		s.queues.put(q)
	}
}

// Table returns an empty hash table keyed on keyIdx and reserved for about
// rows tuples of the given width: the smallest pooled table that already
// holds the reservation or, when none does, the smallest of all, so a
// repeated plan's joins get back tables of their own size.
func (s *Scratch) Table(keyIdx, width, rows int) *operator.HashTable {
	h := s.tables.best(func(*operator.HashTable) bool { return true },
		func(a, b *operator.HashTable) bool {
			ha, hb := a.Holds(width, rows), b.Holds(width, rows)
			return (ha && !hb) || (ha == hb && a.Footprint() < b.Footprint())
		})
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
	if h != nil {
		s.tables.put(h)
	}
}

// GetBatch returns a recycled columnar batch reset to the given width (the
// NextBatch half of the batch recycle contract).
func (s *Scratch) GetBatch(width int) *relation.Batch {
	if b := s.batches.pop(); b != nil {
		b.Reset(width)
		return b
	}
	return relation.NewBatch(width)
}

// PutBatch returns a batch to the pool (the Release half of the contract);
// its grown column capacity is kept for the next run.
func (s *Scratch) PutBatch(b *relation.Batch) {
	if b != nil {
		s.batches.put(b)
	}
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
