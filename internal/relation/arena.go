package relation

// Arena is a reusable scratch buffer for building intermediate tuples. Hot
// paths concatenate probe inputs with build matches once per result tuple;
// allocating each result separately made the allocator the bottleneck of
// every strategy. An Arena instead appends results to one growing []int64
// backing store and hands out subslices, so after warm-up a Reset/Concat
// cycle allocates nothing.
//
// Reset invalidates nothing retroactively in the memory-safety sense —
// tuples handed out earlier keep their values until the arena overwrites
// that region — but callers must treat Reset as the end of life of every
// tuple the arena produced: anything that outlives the cycle (a hash-table
// insert, a temp append, a pending retry buffer) must be copied into
// owner-managed storage first. The engine's hash table and temp store both
// copy on insert, which is what makes per-batch arenas safe.
type Arena struct {
	buf []int64
}

// Reset recycles the arena's backing store. Tuples produced since the last
// Reset must no longer be referenced.
func (a *Arena) Reset() { a.buf = a.buf[:0] }

// Concat returns a tuple holding left's values followed by right's, backed
// by the arena. If growing the arena relocates its backing store, tuples
// handed out earlier keep pointing at the old store and stay intact.
func (a *Arena) Concat(left, right Tuple) Tuple {
	n := len(a.buf)
	end := n + len(left) + len(right)
	a.buf = append(a.buf, left...)
	a.buf = append(a.buf, right...)
	return Tuple(a.buf[n:end:end])
}

// Release detaches the arena's backing store for external pooling and
// leaves the arena empty. The same lifetime rule as Reset applies: no tuple
// the arena produced may be referenced afterwards.
func (a *Arena) Release() []int64 {
	b := a.buf
	a.buf = nil
	if b == nil {
		return nil
	}
	return b[:0]
}

// Recycle installs a previously released backing store, truncated to empty,
// so a fresh arena starts at the recycled capacity instead of nil.
func (a *Arena) Recycle(buf []int64) { a.buf = buf[:0] }

// Append returns a copy of t backed by the arena.
func (a *Arena) Append(t Tuple) Tuple {
	n := len(a.buf)
	end := n + len(t)
	a.buf = append(a.buf, t...)
	return Tuple(a.buf[n:end:end])
}
