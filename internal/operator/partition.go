// Residue: the engine is serial and builds plain HashTables; nothing outside
// bench/ uses this file. Kept only because bench/replay.go compiles against
// NewPartitioned/Route/Part — remove with the next [benchmark] PR.

package operator

import (
	"fmt"

	"dqs/internal/relation"
)

// PartitionedHashTable is a HashTable radix-partitioned by the high bits of
// the join-key hash: partition p holds exactly the keys whose hash's top
// log2(parts) bits equal p, each partition being an ordinary HashTable over
// the hash's low bits. Because every tuple of one key lands in one
// partition and partitions preserve insertion order, a probe replays the
// same match sequence the flat table would — at any partition count — which
// is what lets the engine build partitions on concurrent workers and still
// emit bit-identical results. Partition counts are powers of two; a
// one-partition table degenerates to a flat HashTable behind a nil check.
type PartitionedHashTable struct {
	keyIdx int
	parts  []*HashTable
	// single short-circuits the one-partition case so the serial
	// configuration pays no routing hash on top of the flat table's own.
	single *HashTable
	// shift extracts the partition index: hashKey(k) >> shift. For one
	// partition shift is 64 and the index is constant zero.
	shift uint
}

// NewPartitioned creates a table of the given power-of-two partition count
// keyed on the keyIdx-th column of inserted tuples.
func NewPartitioned(keyIdx, parts int) *PartitionedHashTable {
	h := &PartitionedHashTable{}
	h.Recycle(keyIdx, parts)
	return h
}

// Recycle empties the table, re-targets it at a new key column and resizes
// it to the given power-of-two partition count, keeping as much grown
// partition storage as the new count can use.
func (h *PartitionedHashTable) Recycle(keyIdx, parts int) {
	if keyIdx < 0 {
		panic(fmt.Sprintf("operator: negative hash key index %d", keyIdx))
	}
	if parts < 1 || parts&(parts-1) != 0 {
		panic(fmt.Sprintf("operator: partition count %d is not a positive power of two", parts))
	}
	h.keyIdx = keyIdx
	if parts <= cap(h.parts) {
		h.parts = h.parts[:parts]
	} else {
		grown := make([]*HashTable, parts)
		copy(grown, h.parts)
		h.parts = grown
	}
	for i, p := range h.parts {
		if p == nil {
			h.parts[i] = NewHashTable(keyIdx)
		} else {
			p.Recycle(keyIdx)
		}
	}
	h.shift = uint(64)
	for n := parts; n > 1; n /= 2 {
		h.shift--
	}
	h.single = nil
	if parts == 1 {
		h.single = h.parts[0]
	}
}

// Reset empties the table keeping its partition count and grown storage.
func (h *PartitionedHashTable) Reset() {
	for _, p := range h.parts {
		p.Reset()
	}
}

// Parts returns the partition count.
func (h *PartitionedHashTable) Parts() int { return len(h.parts) }

// Part returns partition p for direct (per-worker) bulk insertion. Callers
// must only hand a partition tuples that Route maps to p; anything else
// breaks probe routing.
func (h *PartitionedHashTable) Part(p int) *HashTable { return h.parts[p] }

// RouteKey returns the partition index of a join key.
func (h *PartitionedHashTable) RouteKey(k int64) int {
	return int(hashKey(k) >> h.shift)
}

// Route returns the partition index of a build tuple.
func (h *PartitionedHashTable) Route(t relation.Tuple) int {
	return h.RouteKey(t[h.keyIdx])
}

// Reserve pre-sizes an empty table for about rows build tuples of the given
// width, splitting the reservation evenly across partitions (a uniform key
// hash spreads rows near-evenly; skewed partitions just fall back to
// amortized growth).
func (h *PartitionedHashTable) Reserve(width, rows int) {
	if h.single != nil {
		h.single.Reserve(width, rows)
		return
	}
	per := (rows + len(h.parts) - 1) / len(h.parts)
	for _, p := range h.parts {
		p.Reserve(width, per)
	}
}

// Insert adds one build tuple to its key's partition. The key is hashed
// once: the top bits route, the partition's buckets use the low bits.
func (h *PartitionedHashTable) Insert(t relation.Tuple) {
	if h.single != nil {
		h.single.Insert(t)
		return
	}
	hash := hashKey(t[h.keyIdx])
	h.parts[hash>>h.shift].insertHashed(t, hash)
}

// InsertBatch adds a run of build tuples serially, each routed to its
// partition; the result is identical to per-partition bulk inserts of the
// same run split by Route.
func (h *PartitionedHashTable) InsertBatch(ts []relation.Tuple) {
	if h.single != nil {
		h.single.InsertBatch(ts)
		return
	}
	for _, t := range ts {
		h.Insert(t)
	}
}

// Probe returns an iterator over the build tuples matching key, in
// insertion order.
func (h *PartitionedHashTable) Probe(key int64) Matches {
	if h.single != nil {
		return h.single.Probe(key)
	}
	hash := hashKey(key)
	p := h.parts[hash>>h.shift]
	return Matches{h: p, idx: p.head(key, hash)}
}

// ProbeConcat is HashTable.ProbeConcat routed to the key's partition.
func (h *PartitionedHashTable) ProbeConcat(dst []relation.Tuple, prefix relation.Tuple, key int64, arena *relation.Arena) ([]relation.Tuple, int) {
	if h.single != nil {
		return h.single.ProbeConcat(dst, prefix, key, arena)
	}
	hash := hashKey(key)
	return h.parts[hash>>h.shift].probeConcatHashed(dst, prefix, key, hash, arena)
}

// ProbeConcatRev is HashTable.ProbeConcatRev routed to the key's partition.
func (h *PartitionedHashTable) ProbeConcatRev(dst []relation.Tuple, suffix relation.Tuple, key int64, arena *relation.Arena) ([]relation.Tuple, int) {
	if h.single != nil {
		return h.single.ProbeConcatRev(dst, suffix, key, arena)
	}
	hash := hashKey(key)
	return h.parts[hash>>h.shift].probeConcatRevHashed(dst, suffix, key, hash, arena)
}

// Rows returns the number of inserted tuples across all partitions.
func (h *PartitionedHashTable) Rows() int64 {
	var n int64
	for _, p := range h.parts {
		n += p.Rows()
	}
	return n
}

// DistinctKeys returns the number of distinct join keys inserted.
func (h *PartitionedHashTable) DistinctKeys() int {
	n := 0
	for _, p := range h.parts {
		n += p.DistinctKeys()
	}
	return n
}

// MemBytes returns the accounting size of the table: rows times the
// accounting tuple size.
func (h *PartitionedHashTable) MemBytes(tupleBytes int) int64 {
	return h.Rows() * int64(tupleBytes)
}
