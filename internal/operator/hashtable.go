// Package operator provides the physical operator kernels shared by every
// execution strategy: the hash table of the asymmetric hash join, predicate
// evaluation, and per-tuple cost charging. Because SEQ, MA and DSE all run
// on these same kernels, performance differences between strategies can only
// come from scheduling — the paper's §5.1.2 methodological requirement.
package operator

import (
	"fmt"
	"time"

	"dqs/internal/relation"
	"dqs/internal/sim"
)

// HashTable is the in-memory build side of a hash join. It is an
// open-addressing table whose tuples live in a flat per-table arena: entry i
// occupies arena[i*width : (i+1)*width], and entries with the same key are
// chained through next[] in insertion order, so probes replay matches exactly
// as a map[int64][]Tuple of append-order slices would — the property the
// deterministic golden figures rely on. Steady-state Insert and Probe do not
// allocate; growth is geometric and amortized.
type HashTable struct {
	keyIdx int
	width  int     // tuple width, fixed by the first insert (-1 = unset)
	arena  []int64 // flat tuple storage
	next   []int32 // same-key chain, insertion order, -1 terminates
	rows   int64

	// Open-addressing bucket array (linear probing, capacity a power of
	// two). A bucket holds one distinct key with the head and tail of its
	// entry chain; bhead[i] < 0 marks an empty slot. Tables never delete
	// individual keys, so no tombstones are needed.
	bkeys []int64
	bhead []int32
	btail []int32
	used  int // occupied buckets (distinct keys)
}

// NewHashTable creates a table keyed on the given column index of inserted
// tuples.
func NewHashTable(keyIdx int) *HashTable {
	if keyIdx < 0 {
		panic(fmt.Sprintf("operator: negative hash key index %d", keyIdx))
	}
	return &HashTable{keyIdx: keyIdx, width: -1}
}

// Reserve pre-sizes an empty table for about rows build tuples of the given
// width: the entry arena, the chain array and the bucket array are allocated
// up front, so a build that stays within the reservation never rehashes its
// buckets or re-copies its arena. The row count is a hint — estimator
// cardinality observations or optimizer estimates — and inserts beyond it
// simply fall back to amortized growth; correctness never depends on it.
func (h *HashTable) Reserve(width, rows int) {
	if h.rows > 0 {
		panic(fmt.Sprintf("operator: reserve on non-empty table (%d rows)", h.rows))
	}
	if width <= 0 || rows <= 0 {
		return
	}
	if need := width * rows; cap(h.arena) < need {
		h.arena = make([]int64, 0, need)
	}
	if cap(h.next) < rows {
		h.next = make([]int32, 0, rows)
	}
	// Bucket array sized so `rows` distinct keys stay under the 3/4 load
	// factor (fewer distinct keys just leave it sparser).
	n := 8
	for n-n/4 <= rows {
		n *= 2
	}
	if len(h.bkeys) < n {
		h.bkeys = make([]int64, n)
		h.bhead = make([]int32, n)
		h.btail = make([]int32, n)
		for i := range h.bhead {
			h.bhead[i] = -1
		}
	}
}

// Holds reports whether Reserve(width, rows) would allocate nothing.
func (h *HashTable) Holds(width, rows int) bool {
	if width <= 0 || rows <= 0 {
		return true
	}
	n := len(h.bkeys)
	return cap(h.arena) >= width*rows && cap(h.next) >= rows && n-n/4 > rows
}

// Footprint returns the bytes of storage the table holds, used or not.
func (h *HashTable) Footprint() int {
	return 8*cap(h.arena) + 4*cap(h.next) + 16*len(h.bkeys)
}

// hashKey mixes a join key into a well-distributed 64-bit hash
// (splitmix64/murmur3 finalizer).
func hashKey(k int64) uint64 {
	x := uint64(k)
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// grow doubles the bucket array and rehashes every distinct key. Entry
// storage (arena, chains) is untouched: only the (key, head, tail) bucket
// records move.
func (h *HashTable) grow() {
	n := len(h.bkeys) * 2
	if n == 0 {
		n = 8
	}
	oldKeys, oldHead, oldTail := h.bkeys, h.bhead, h.btail
	h.bkeys = make([]int64, n)
	h.bhead = make([]int32, n)
	h.btail = make([]int32, n)
	for i := range h.bhead {
		h.bhead[i] = -1
	}
	mask := n - 1
	for i, head := range oldHead {
		if head < 0 {
			continue
		}
		j := int(hashKey(oldKeys[i])) & mask
		for h.bhead[j] >= 0 {
			j = (j + 1) & mask
		}
		h.bkeys[j], h.bhead[j], h.btail[j] = oldKeys[i], head, oldTail[i]
	}
}

// Insert adds one build tuple, copying its values into the table's arena;
// the caller's backing array may be reused afterwards.
func (h *HashTable) Insert(t relation.Tuple) { h.insertHashed(t, hashKey(t[h.keyIdx])) }

// insertHashed is Insert given hashKey of the tuple's join key. It and the
// other *Hashed helpers (head's hash parameter included) are split out only
// for partition.go, which hashes once to route — residue kept for bench/;
// fold them back with the next [benchmark] PR.
func (h *HashTable) insertHashed(t relation.Tuple, hash uint64) {
	if h.width < 0 {
		h.width = len(t)
	} else if len(t) != h.width {
		panic(fmt.Sprintf("operator: tuple width %d inserted into width-%d table", len(t), h.width))
	}
	idx := int32(len(h.next))
	h.arena = append(h.arena, t...)
	h.next = append(h.next, -1)
	h.rows++

	if h.used >= len(h.bkeys)-len(h.bkeys)/4 { // load factor 3/4
		h.grow()
	}
	k := t[h.keyIdx]
	mask := len(h.bkeys) - 1
	i := int(hash) & mask
	for h.bhead[i] >= 0 && h.bkeys[i] != k {
		i = (i + 1) & mask
	}
	if h.bhead[i] < 0 {
		h.bkeys[i], h.bhead[i], h.btail[i] = k, idx, idx
		h.used++
	} else {
		h.next[h.btail[i]] = idx
		h.btail[i] = idx
	}
}

// InsertBatch adds a run of build tuples, equivalent to calling Insert per
// element but growing the entry storage once for the whole run.
func (h *HashTable) InsertBatch(ts []relation.Tuple) {
	if len(ts) == 0 {
		return
	}
	if h.width < 0 {
		h.width = len(ts[0])
	}
	if need := len(h.arena) + len(ts)*h.width; cap(h.arena) < need {
		h.arena = growTo(h.arena, need)
	}
	if need := len(h.next) + len(ts); cap(h.next) < need {
		h.next = growTo(h.next, need)
	}
	for _, t := range ts {
		h.Insert(t)
	}
}

// growTo reallocates s to hold at least need elements, doubling so repeated
// batch inserts stay amortized-linear like append's growth.
func growTo[E any](s []E, need int) []E {
	c := 2 * cap(s)
	if c < need {
		c = need
	}
	out := make([]E, len(s), c)
	copy(out, s)
	return out
}

// Matches iterates the build tuples of one key in insertion order. The zero
// value is an empty iteration.
type Matches struct {
	h   *HashTable
	idx int32
}

// Next returns the next matching tuple, or nil when the matches are
// exhausted. The returned tuple aliases the table's arena; callers must not
// mutate it, and it stays valid for the life of the table.
func (m *Matches) Next() relation.Tuple {
	if m.idx < 0 {
		return nil
	}
	h := m.h
	off := int(m.idx) * h.width
	t := relation.Tuple(h.arena[off : off+h.width : off+h.width])
	m.idx = h.next[m.idx]
	return t
}

// Probe returns an iterator over the build tuples matching key, in insertion
// order. Probing allocates nothing.
func (h *HashTable) Probe(key int64) Matches {
	return Matches{h: h, idx: h.head(key, hashKey(key))}
}

// head returns the first entry of key's chain, -1 when the key is absent,
// given hashKey(key).
func (h *HashTable) head(key int64, hash uint64) int32 {
	if h.used == 0 {
		return -1
	}
	mask := len(h.bkeys) - 1
	i := int(hash) & mask
	for {
		if h.bhead[i] < 0 {
			return -1
		}
		if h.bkeys[i] == key {
			return h.bhead[i]
		}
		i = (i + 1) & mask
	}
}

// ProbeConcat walks the matches of key in insertion order, appending
// prefix++match for each to dst (backed by arena), and returns the extended
// slice plus the match count. It is the probe cascade's inner loop with the
// iterator hop and per-match call overhead flattened away.
func (h *HashTable) ProbeConcat(dst []relation.Tuple, prefix relation.Tuple, key int64, arena *relation.Arena) ([]relation.Tuple, int) {
	return h.probeConcatHashed(dst, prefix, key, hashKey(key), arena)
}

// probeConcatHashed is ProbeConcat given hashKey(key).
func (h *HashTable) probeConcatHashed(dst []relation.Tuple, prefix relation.Tuple, key int64, hash uint64, arena *relation.Arena) ([]relation.Tuple, int) {
	n := 0
	for idx := h.head(key, hash); idx >= 0; idx = h.next[idx] {
		off := int(idx) * h.width
		m := relation.Tuple(h.arena[off : off+h.width : off+h.width])
		dst = append(dst, arena.Concat(prefix, m))
		n++
	}
	return dst, n
}

// ProbeConcatRev is ProbeConcat with the concatenation order flipped:
// match++suffix. The symmetric-join network needs both orders because the
// result schema is always probe-side ++ build-side regardless of which side
// the arriving tuple came from.
func (h *HashTable) ProbeConcatRev(dst []relation.Tuple, suffix relation.Tuple, key int64, arena *relation.Arena) ([]relation.Tuple, int) {
	return h.probeConcatRevHashed(dst, suffix, key, hashKey(key), arena)
}

// probeConcatRevHashed is ProbeConcatRev given hashKey(key).
func (h *HashTable) probeConcatRevHashed(dst []relation.Tuple, suffix relation.Tuple, key int64, hash uint64, arena *relation.Arena) ([]relation.Tuple, int) {
	n := 0
	for idx := h.head(key, hash); idx >= 0; idx = h.next[idx] {
		off := int(idx) * h.width
		m := relation.Tuple(h.arena[off : off+h.width : off+h.width])
		dst = append(dst, arena.Concat(m, suffix))
		n++
	}
	return dst, n
}

// Reset empties the table while keeping its arena, chain and bucket storage
// for reuse, so steady-state refills allocate nothing.
func (h *HashTable) Reset() {
	h.arena = h.arena[:0]
	h.next = h.next[:0]
	h.rows = 0
	h.width = -1
	for i := range h.bhead {
		h.bhead[i] = -1
	}
	h.used = 0
}

// Recycle is Reset rekeyed: it empties the table and re-targets it at a new
// key column, so pooled tables can serve joins with different key positions
// while keeping their grown storage.
func (h *HashTable) Recycle(keyIdx int) {
	if keyIdx < 0 {
		panic(fmt.Sprintf("operator: negative hash key index %d", keyIdx))
	}
	h.Reset()
	h.keyIdx = keyIdx
}

// Rows returns the number of inserted tuples.
func (h *HashTable) Rows() int64 { return h.rows }

// DistinctKeys returns the number of distinct join keys inserted.
func (h *HashTable) DistinctKeys() int { return h.used }

// MemBytes returns the accounting size of the table: rows times the
// accounting tuple size.
func (h *HashTable) MemBytes(tupleBytes int) int64 { return h.rows * int64(tupleBytes) }

// Costs bundles the per-tuple instruction charges of Table 1 so operator
// call sites read like the paper's cost model. The charge durations are
// fixed by the parameter table, so they are converted to time once at
// construction; per-tuple charging is then a single clock addition instead
// of a float division and a struct copy. Batched call sites may accumulate
// multiples of the exported durations and charge one Clock.Work: duration
// addition is exact integer arithmetic, so the merged charge lands the
// clock on the same instant as the per-call sequence.
type Costs struct {
	CPU sim.CPU

	// MoveT bills moving one tuple (scan/materialize/build insert).
	MoveT time.Duration
	// ProbeT bills one hash-table search.
	ProbeT time.Duration
	// ResultT bills producing one result tuple.
	ResultT time.Duration
	// ReceiveT bills the amortized message-receive cost of taking one tuple
	// off a wrapper queue.
	ReceiveT time.Duration
}

// NewCosts precomputes the charge table for the given clock and parameters.
func NewCosts(clock *sim.Clock, p sim.Params) Costs {
	return Costs{
		CPU:      sim.CPU{Clock: clock, Params: p},
		MoveT:    p.InstrTime(p.MoveTupleInstr),
		ProbeT:   p.InstrTime(p.HashSearchInstr),
		ResultT:  p.InstrTime(p.ProduceResultInstr),
		ReceiveT: p.InstrTime(p.ReceiveTupleInstr()),
	}
}

// ChargeMove bills moving one tuple (scan/materialize/build insert).
func (c *Costs) ChargeMove() { c.CPU.Clock.Work(c.MoveT) }

// ChargeProbe bills one hash-table search.
func (c *Costs) ChargeProbe() { c.CPU.Clock.Work(c.ProbeT) }

// ChargeResult bills producing one result tuple.
func (c *Costs) ChargeResult() { c.CPU.Clock.Work(c.ResultT) }

// ChargeReceive bills the amortized message-receive cost of taking one
// tuple off a wrapper queue.
func (c *Costs) ChargeReceive() { c.CPU.Clock.Work(c.ReceiveT) }
