package exec

import (
	"sync"
	"sync/atomic"
	"time"

	"dqs/internal/comm"
	"dqs/internal/mem"
	"dqs/internal/operator"
	"dqs/internal/sim"
)

// scratch recycles the allocation-heavy execution state of one mediator —
// wrapper queues, hash tables, join-network arenas, temp relations (arena,
// page bookkeeping and reader alike), shared-stream schedules, wrapper
// staging buffers, RNG streams, the communication manager, the simulated
// disk, the grant ledger and the temp store — across runs, and holds the
// mediator's one fragment cascade, whose grown storage the next run reuses
// as it is.
// NewMediator checks one out (getScratch) and Mediator.Reclaim returns it,
// so repeated runs reuse grown storage instead of re-allocating it; pooling
// recycles only capacity, never contents (every object is reset or
// overwritten on checkout), so a run's results do not depend on what the
// scratch served before.
//
// Retention. A scratch keeps every object its mediators return and drops
// leftovers only when they are shown to be stale: when a checkout had to
// allocate an object of some kind because nothing pooled fitted (a queue of
// another capacity, an arena too small), every pooled object of that kind
// it left untouched is dropped at Reclaim. So a scratch never holds more
// objects of a kind than the last mediator that allocated one of that kind
// had checked out, and for the kinds handed out without regard to size,
// never more than its mediators ever had out at once.
//
// A scratch is NOT safe for concurrent use: it serves one mediator at a time.
type scratch struct {
	queues  pool[*comm.Queue]
	tables  pool[*operator.HashTable]
	temps   pool[pooledTemp] // temp relations with their storage, best-fit by arena
	indices pool[[]int32]    // join-network match lists
	bools   pool[[]bool]
	times   pool[[]time.Duration] // stream schedules and wrapper staging, best-fit
	rngs    pool[*sim.RNG]

	// cascade is the running fragment's execution state (see cascade).
	cascade cascade
	// The mediator's communication manager (whose grown scan order and due
	// index the next mediator reuses), loop counters, simulated disk, grant
	// ledger (whose holder list it reuses) and temp store.
	cm    *comm.Manager
	work  Work
	disk  *sim.Disk
	grant *mem.Manager
	store *mem.TempStore

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
func (s *scratch) settle() {
	s.queues.settle()
	s.tables.settle()
	s.temps.settle()
	s.indices.settle()
	s.bools.settle()
	s.times.settle()
	s.rngs.settle()
}

// scratchPool hands concurrent mediators (experiment cells, server batches)
// a scratch each, and lets the GC drop what an idle process no longer uses.
var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// lastScratch holds the last reclaimed scratch outside scratchPool, whose
// Put a Get on another processor never sees: a run the scheduler moved since
// the previous Reclaim would start cold, re-allocating tens of megabytes on
// a full-scale plan. An idle process keeps this one scratch alive.
var lastScratch atomic.Pointer[scratch]

// getScratch checks out a new mediator's scratch: lastScratch's if free,
// else one from scratchPool.
func getScratch() *scratch {
	if s := lastScratch.Swap(nil); s != nil {
		return s
	}
	return scratchPool.Get().(*scratch)
}

// putScratch returns a reclaimed scratch, ending its checkout; the one it
// displaces from lastScratch goes to scratchPool.
func putScratch(s *scratch) {
	s.settle()
	if old := lastScratch.Swap(s); old != nil {
		scratchPool.Put(old)
	}
}

// The slice pools, one per element type: each get returns a recycled
// length-zero slice (nil when the pool is empty), each put reclaims one; the
// exported ones are those source.Recycler needs. Indices are the join
// network's match lists, bools wrapper staging.
func (s *scratch) getIndices() []int32  { return s.indices.pop() }
func (s *scratch) putIndices(b []int32) { putSlice(&s.indices, b) }
func (s *scratch) GetBools() []bool     { return s.bools.pop() }
func (s *scratch) PutBools(b []bool)    { putSlice(&s.bools, b) }

// pooledTemp is a reclaimed temp relation and its arena's capacity.
type pooledTemp struct {
	t        *mem.Temp
	capacity int
}

// GetTemp returns the pooled temp relation whose arena fits best — the
// smallest that holds the given capacity — or nil when none does. With
// PutTemp it makes scratch a mem.IntRecycler.
func (s *scratch) GetTemp(capacity int) *mem.Temp {
	return s.temps.best(func(p pooledTemp) bool { return p.capacity >= capacity },
		func(a, b pooledTemp) bool { return a.capacity < b.capacity }).t
}

// PutTemp reclaims a temp relation, header, arena and reader alike.
func (s *scratch) PutTemp(t *mem.Temp, capacity int) { s.temps.put(pooledTemp{t, capacity}) }

// GetTimes returns the best-fitting pooled []time.Duration of at least the
// given capacity, or nil. With PutTimes, GetBools and PutBools it makes
// scratch a source.Recycler: shared-stream schedules and wrapper staging.
func (s *scratch) GetTimes(capacity int) []time.Duration { return bestSlice(&s.times, capacity) }

// PutTimes reclaims a schedule or staging buffer.
func (s *scratch) PutTimes(b []time.Duration) { putSlice(&s.times, b) }

// rng returns a generator seeded with seed: a recycled one reseeded, which
// draws exactly the stream sim.NewRNG(seed) would, else a new one.
func (s *scratch) rng(seed int64) *sim.RNG {
	if g := s.rngs.pop(); g != nil {
		g.Seed(seed)
		return g
	}
	return sim.NewRNG(seed)
}

// putRNG reclaims a generator once its run is over.
func (s *scratch) putRNG(g *sim.RNG) { s.rngs.put(g) }

// queue returns a reset queue of the given capacity whose ring carries width
// live columns, recycled when the pool holds one of matching capacity
// (window sizes are sweep parameters, so only an exact match preserves the
// protocol): the narrowest that already holds width columns, else the
// widest.
func (s *scratch) queue(name string, capacity, width int) *comm.Queue {
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

// manager returns the scratch's communication manager, emptied, creating it
// on first use.
func (s *scratch) manager() *comm.Manager {
	if s.cm == nil {
		s.cm = comm.NewManager()
	} else {
		s.cm.Reset()
	}
	return s.cm
}

// site returns the scratch's simulated disk, grant ledger and temp store,
// reset to fresh ones' state, creating them on first use.
func (s *scratch) site(cfg Config, clock *sim.Clock) (*sim.Disk, *mem.Manager, *mem.TempStore, error) {
	if s.grant == nil {
		grant, err := mem.NewManager(cfg.MemoryBytes)
		if err != nil {
			return nil, nil, nil, err
		}
		s.disk, s.grant = sim.NewDisk(cfg.Params, clock), grant
		s.store = mem.NewTempStore(cfg.Params, s.disk, clock)
		return s.disk, s.grant, s.store, nil
	}
	s.disk.Reset(cfg.Params, clock)
	s.grant.Reset(cfg.MemoryBytes)
	s.store.Reset(cfg.Params, s.disk, clock)
	return s.disk, s.grant, s.store, nil
}

// putQueue returns a queue to the pool once its run is over.
func (s *scratch) putQueue(q *comm.Queue) {
	if q != nil {
		s.queues.put(q)
	}
}

// table returns an empty hash table keyed on keyIdx and reserved for about
// rows tuples of the given width: the smallest pooled table that already
// holds the reservation or, when none does, the smallest of all, so a
// repeated plan's joins get back tables of their own size.
func (s *scratch) table(keyIdx, width, rows int) *operator.HashTable {
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

// putTable returns a hash table to the pool once its run is over.
func (s *scratch) putTable(h *operator.HashTable) {
	if h != nil {
		s.tables.put(h)
	}
}

// recordBuildRows stores the exact cardinality of a completed build as the
// pre-size hint for the next run touching the same join node.
func (s *scratch) recordBuildRows(joinID int, rows int64) {
	if s.buildRows == nil {
		s.buildRows = make(map[int]int64)
	}
	s.buildRows[joinID] = rows
}

// buildRowsHint returns the recorded cardinality of a join's build, if a
// prior run completed it on this pool.
func (s *scratch) buildRowsHint(joinID int) (int64, bool) {
	rows, ok := s.buildRows[joinID]
	return rows, ok
}
