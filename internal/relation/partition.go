// Residue: the engine is serial and scatters nothing; nothing outside bench/
// uses this file. Kept only because bench/replay.go compiles against Buckets
// — remove with the next [benchmark] PR.

package relation

// Buckets is the reusable scatter scratch of a partition-parallel build:
// one tuple-header slice per hash partition, filled serially by the radix
// scatter pass and then drained by per-partition workers. Headers only —
// the tuple values stay wherever the caller's batch put them — so a
// scatter pass allocates nothing once the per-partition slices have grown
// to the working batch size.
type Buckets struct {
	parts [][]Tuple
}

// Ensure resizes to n partitions and truncates every partition to empty,
// keeping grown capacity.
func (b *Buckets) Ensure(n int) {
	if n <= cap(b.parts) {
		b.parts = b.parts[:n]
	} else {
		grown := make([][]Tuple, n)
		copy(grown, b.parts)
		b.parts = grown
	}
	for i := range b.parts {
		b.parts[i] = b.parts[i][:0]
	}
}

// Add appends a tuple header to partition p.
func (b *Buckets) Add(p int, t Tuple) { b.parts[p] = append(b.parts[p], t) }

// Part returns the tuples scattered to partition p.
func (b *Buckets) Part(p int) []Tuple { return b.parts[p] }

// Clear drops the tuple headers of every partition (keeping capacity), so
// pooled buckets don't pin batch storage from finished runs.
func (b *Buckets) Clear() {
	for i := range b.parts {
		s := b.parts[i][:cap(b.parts[i])]
		for j := range s {
			s[j] = nil
		}
		b.parts[i] = s[:0]
	}
}
