// Package operator provides the physical operator kernels shared by every
// execution strategy: the hash table of the asymmetric hash join and
// per-tuple cost charging. Because SEQ, MA and DSE all run on these same
// kernels, performance differences between strategies can only come from
// scheduling — the paper's §5.1.2 methodological requirement.
package operator

import (
	"fmt"
	"time"

	"dqs/internal/relation"
	"dqs/internal/sim"
)

// HashTable is the in-memory build side of a hash join. Its tuples live in a
// flat per-table arena: entry i occupies arena[i*width : (i+1)*width], and
// entries with the same key are chained through next[] in insertion order, so
// probes replay matches exactly as a map[int64][]Tuple of append-order slices
// would — the property the deterministic golden figures rely on.
//
// The engine probes to entry indices, not rows: Heads resolves a run of
// keys to chain heads (Head one key), Chain walks a chain into a flat index
// list and Entry reads an entry's values in place, so a probe result is
// copied only where something stores it. Extend hands a caller the storage
// of new entries to write its rows straight into.
//
// Inserts only append: the tuple goes to the arena and its chain link is
// pending. The first probe after any inserts (Head, Heads, Probe,
// ProbeConcat or DistinctKeys) links every pending entry into the bucket
// array — one 16-byte {key, head, tail} record per distinct key — in one
// tight pass, in insertion order, so the bucket misses of a build overlap
// instead of each insert waiting on its own. Because a probe may link, a
// table's probes must stay on one goroutine (or follow one that already
// linked it). Steady-state inserts and probes do not allocate; growth is
// geometric and amortized.
type HashTable struct {
	keyIdx int
	width  int     // tuple width, fixed by the first insert (-1 = unset)
	arena  []int64 // flat tuple storage
	next   []int32 // same-key chain, insertion order, -1 terminates
	linked int     // entries [0, linked) are chained; the rest are pending

	// Open-addressing bucket array (linear probing, capacity a power of
	// two). Tables never delete individual keys, so no tombstones are
	// needed.
	buckets []bucket
	used    int // occupied buckets (distinct linked keys)
}

// bucket is one distinct key with the first and last entries of its chain,
// both stored as entry index + 1, so the zero record is an empty bucket and
// head-1 is the chain head, or -1 for an empty bucket.
type bucket struct {
	key        int64
	head, tail int32
}

// NewHashTable creates a table keyed on the given column index of inserted
// tuples.
func NewHashTable(keyIdx int) *HashTable {
	if keyIdx < 0 {
		panic(fmt.Sprintf("operator: negative hash key index %d", keyIdx))
	}
	return &HashTable{keyIdx: keyIdx, width: -1}
}

// bucketsFor returns the bucket count that keeps keys distinct keys under
// the 3/4 load factor: the smallest power of two n ≥ 8 with n-n/4 > keys.
func bucketsFor(keys int) int {
	n := 8
	for n-n/4 <= keys {
		n *= 2
	}
	return n
}

// Reserve pre-sizes an empty table for about rows build tuples of the given
// width: the entry arena, the chain array and the bucket array are allocated
// up front, so a build that stays within the reservation never rehashes its
// buckets or re-copies its arena. The row count is a hint — estimator
// cardinality observations or optimizer estimates — and inserts beyond it
// simply fall back to amortized growth; correctness never depends on it.
func (h *HashTable) Reserve(width, rows int) {
	if len(h.next) > 0 {
		panic(fmt.Sprintf("operator: reserve on non-empty table (%d rows)", len(h.next)))
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
	// Sized so `rows` distinct keys fit (fewer just leave it sparser).
	if n := bucketsFor(rows); len(h.buckets) < n {
		h.buckets = make([]bucket, n)
	}
}

// Holds reports whether Reserve(width, rows) would allocate nothing.
func (h *HashTable) Holds(width, rows int) bool {
	if width <= 0 || rows <= 0 {
		return true
	}
	n := len(h.buckets)
	return cap(h.arena) >= width*rows && cap(h.next) >= rows && n-n/4 > rows
}

// Footprint returns the bytes of storage the table holds, used or not.
func (h *HashTable) Footprint() int {
	return 8*cap(h.arena) + 4*cap(h.next) + 16*len(h.buckets)
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

// rehash moves every bucket record into a new array of n buckets. Entry
// storage (arena, chains) is untouched.
func (h *HashTable) rehash(n int) {
	old := h.buckets
	h.buckets = make([]bucket, n)
	mask := n - 1
	for _, b := range old {
		if b.head == 0 {
			continue
		}
		i := int(hashKey(b.key)) & mask
		for h.buckets[i].head != 0 {
			i = (i + 1) & mask
		}
		h.buckets[i] = b
	}
}

// Insert appends one build tuple, copying its values into the table's arena;
// the caller's backing array may be reused afterwards. The entry joins its
// key's chain at the next probe.
func (h *HashTable) Insert(t relation.Tuple) { copy(h.Extend(len(t), 1), t) }

// InsertBatch adds a run of build tuples, equivalent to calling Insert per
// element but growing the entry storage once for the whole run.
func (h *HashTable) InsertBatch(ts []relation.Tuple) {
	if len(ts) == 0 {
		return
	}
	w := len(ts[0])
	dst := h.Extend(w, len(ts))
	for i, t := range ts {
		if len(t) != w {
			panic(fmt.Sprintf("operator: tuple width %d inserted into width-%d table", len(t), w))
		}
		copy(dst[i*w:], t)
	}
}

// Extend appends n entries of the given width and returns their storage,
// n*width values row after row, which the caller fills before the table's
// next probe: the entries join their keys' chains there. The first Extend
// or insert fixes the table's width.
func (h *HashTable) Extend(width, n int) []int64 {
	if h.width < 0 {
		h.width = width
	} else if width != h.width {
		panic(fmt.Sprintf("operator: tuple width %d inserted into width-%d table", width, h.width))
	}
	off, need := len(h.arena), len(h.arena)+n*width
	if cap(h.arena) < need {
		h.arena = growTo(h.arena, need)
	}
	if cap(h.next) < len(h.next)+n {
		h.next = growTo(h.next, len(h.next)+n)
	}
	h.arena = h.arena[:need]
	for range n {
		h.next = append(h.next, -1)
	}
	return h.arena[off:need:need]
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

// linkPending chains the entries inserted since the last probe, if any.
func (h *HashTable) linkPending() {
	if h.linked < len(h.next) {
		h.link()
	}
}

// link chains every pending entry into the buckets, in insertion order. The
// bucket array grows at most once, up front, to the size that would hold
// every pending entry as a new key, so the pass is one loop of independent
// bucket lookups.
func (h *HashTable) link() {
	n := len(h.next)
	if keys := h.used + n - h.linked; keys >= len(h.buckets)-len(h.buckets)/4 {
		h.rehash(bucketsFor(keys))
	}
	buckets, mask, used := h.buckets, len(h.buckets)-1, h.used
	for idx := h.linked; idx < n; idx++ {
		k := h.arena[idx*h.width+h.keyIdx]
		e := int32(idx) + 1
		for i := int(hashKey(k)) & mask; ; i = (i + 1) & mask {
			b := &buckets[i]
			if b.head == 0 {
				*b = bucket{key: k, head: e, tail: e}
				used++
				break
			}
			if b.key == k {
				h.next[b.tail-1] = int32(idx)
				b.tail = e
				break
			}
		}
	}
	h.linked, h.used = n, used
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
	if m.h == nil || m.idx < 0 {
		return nil
	}
	t := m.h.Entry(m.idx)
	m.idx = m.h.next[m.idx]
	return t
}

// Entry returns entry e's values. The tuple aliases the table's arena:
// callers must not mutate it, and it stays valid until the table's next
// Extend or insert.
func (h *HashTable) Entry(e int32) relation.Tuple {
	off := int(e) * h.width
	return relation.Tuple(h.arena[off : off+h.width : off+h.width])
}

// Probe returns an iterator over the build tuples matching key, in insertion
// order. Probing allocates nothing.
func (h *HashTable) Probe(key int64) Matches {
	return Matches{h: h, idx: h.head(key, hashKey(key))}
}

// Head returns the first entry matching key, -1 when none does.
func (h *HashTable) Head(key int64) int32 { return h.head(key, hashKey(key)) }

// head is Head given hashKey(key). It takes the hash only for
// partition.go, which hashes once to route — residue kept for bench/; fold
// it into Head with the next [benchmark] PR.
func (h *HashTable) head(key int64, hash uint64) int32 {
	h.linkPending()
	if h.used == 0 {
		return -1
	}
	mask := len(h.buckets) - 1
	for i := int(hash) & mask; ; i = (i + 1) & mask {
		if b := &h.buckets[i]; b.head == 0 || b.key == key {
			return b.head - 1
		}
	}
}

// Heads resolves the chains of a run of probe keys in one pass: heads[i]
// becomes the first entry matching keys[i], -1 when none does, for Chain.
// Resolving a whole run before walking any chain lets the bucket misses of
// neighbouring keys overlap. heads must be at least as long as keys.
func (h *HashTable) Heads(keys []int64, heads []int32) {
	heads = heads[:len(keys)]
	h.linkPending()
	if h.used == 0 {
		for i := range heads {
			heads[i] = -1
		}
		return
	}
	buckets, mask := h.buckets, len(h.buckets)-1
	for j, k := range keys {
		for i := int(hashKey(k)) & mask; ; i = (i + 1) & mask {
			if b := &buckets[i]; b.head == 0 || b.key == k {
				heads[j] = b.head - 1
				break
			}
		}
	}
}

// Chain appends the entries of the chain that starts at head (a Head or
// Heads result; -1 is the empty chain) to dst, in insertion order, and
// returns the extended slice.
func (h *HashTable) Chain(dst []int32, head int32) []int32 {
	for e := head; e >= 0; e = h.next[e] {
		dst = append(dst, e)
	}
	return dst
}

// ProbeConcat walks the matches of key in insertion order, appending
// prefix++match for each to dst (backed by arena), and returns the extended
// slice plus the match count. It and ConcatChain stay only because bench/
// probes a PartitionedHashTable with them — remove with the next
// [benchmark] PR.
func (h *HashTable) ProbeConcat(dst []relation.Tuple, prefix relation.Tuple, key int64, arena *relation.Arena) ([]relation.Tuple, int) {
	return h.ConcatChain(dst, prefix, h.head(key, hashKey(key)), arena)
}

// ConcatChain is ProbeConcat from a chain head that Heads resolved.
func (h *HashTable) ConcatChain(dst []relation.Tuple, prefix relation.Tuple, head int32, arena *relation.Arena) ([]relation.Tuple, int) {
	n := 0
	for idx := head; idx >= 0; idx = h.next[idx] {
		dst = append(dst, arena.Concat(prefix, h.Entry(idx)))
		n++
	}
	return dst, n
}

// Reset empties the table while keeping its arena, chain and bucket storage
// for reuse, so steady-state refills allocate nothing.
func (h *HashTable) Reset() {
	h.arena = h.arena[:0]
	h.next = h.next[:0]
	h.width = -1
	h.linked = 0
	if h.used > 0 {
		clear(h.buckets)
		h.used = 0
	}
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
func (h *HashTable) Rows() int64 { return int64(len(h.next)) }

// DistinctKeys returns the number of distinct join keys inserted. Like a
// probe, it links pending entries first.
func (h *HashTable) DistinctKeys() int {
	h.linkPending()
	return h.used
}

// MemBytes returns the accounting size of the table: rows times the
// accounting tuple size.
func (h *HashTable) MemBytes(tupleBytes int) int64 { return h.Rows() * int64(tupleBytes) }

// Costs is the clock the per-tuple instruction charges of Table 1 are
// billed to, with those four charges, so operator call sites read like the
// paper's cost model. The charge durations are fixed by the parameter
// table, so they are converted to time once at construction; per-tuple
// charging is then a single clock addition instead of a float division. It
// holds no parameter table: any other instruction count is billed as
// Clock.Work(Params.InstrTime(n)). Batched call sites may accumulate
// multiples of the exported durations and charge one Clock.Work: duration
// addition is exact integer arithmetic, so the merged charge lands the
// clock on the same instant as the per-call sequence.
type Costs struct {
	Clock *sim.Clock

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
		Clock:    clock,
		MoveT:    p.InstrTime(p.MoveTupleInstr),
		ProbeT:   p.InstrTime(p.HashSearchInstr),
		ResultT:  p.InstrTime(p.ProduceResultInstr),
		ReceiveT: p.InstrTime(p.ReceiveTupleInstr()),
	}
}

// ChargeMove bills moving one tuple (scan/materialize/build insert).
func (c *Costs) ChargeMove() { c.Clock.Work(c.MoveT) }

// ChargeProbe bills one hash-table search.
func (c *Costs) ChargeProbe() { c.Clock.Work(c.ProbeT) }

// ChargeResult bills producing one result tuple.
func (c *Costs) ChargeResult() { c.Clock.Work(c.ResultT) }
