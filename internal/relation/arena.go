package relation

import "slices"

// Arena is a reusable scratch buffer for rows that must outlive the storage
// they were gathered from: the engine copies a fragment's overflow-stranded
// outputs into one, so its retry buffer needs no allocation per tuple. An
// Arena appends rows to one growing []int64 backing store and hands out
// subslices, so after warm-up a Reset/Extend cycle allocates nothing.
//
// Reset invalidates nothing retroactively in the memory-safety sense —
// tuples handed out earlier keep their values until the arena overwrites
// that region — but callers must treat Reset as the end of life of every
// tuple the arena produced.
type Arena struct {
	buf []int64
}

// Reset recycles the arena's backing store. Tuples produced since the last
// Reset must no longer be referenced.
func (a *Arena) Reset() { a.buf = a.buf[:0] }

// Extend returns a tuple of n values, unset, backed by the arena. If growing
// the arena relocates its backing store, tuples handed out earlier keep
// pointing at the old store and stay intact.
func (a *Arena) Extend(n int) Tuple {
	at := len(a.buf)
	a.buf = slices.Grow(a.buf, n)[:at+n]
	return Tuple(a.buf[at : at+n : at+n])
}

// Concat returns a tuple holding left's values followed by right's, backed
// by the arena. It stays only because bench/ concatenates probe results
// with it (through operator.HashTable.ProbeConcat) — remove with the next
// [benchmark] PR.
func (a *Arena) Concat(left, right Tuple) Tuple {
	t := a.Extend(len(left) + len(right))
	copy(t[copy(t, left):], right)
	return t
}
