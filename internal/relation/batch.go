package relation

import "fmt"

// Batch is a fixed-width columnar tuple batch: column c of row i is
// Col(c)[i]. It is the unit of the engine's columnar dataflow — wrapper
// queues fill batches with flat per-column runs, fragments gather rows back
// out — replacing the slice-of-slices row batches whose per-tuple headers
// made every transfer a pointer-chasing, write-barriered copy.
//
// Batches follow an explicit NextBatch/Release recycle contract: the
// consumer obtains an empty batch from a pool (exec.Scratch), fills and
// drains it, and releases it back. A released batch's columns keep their
// grown capacity, so steady-state batch traffic allocates nothing. A Batch
// is single-owner scratch state; it is not safe for concurrent use.
type Batch struct {
	width int
	n     int
	cols  [][]int64
	ext   [][]int64 // reusable view slice returned by Extend
}

// NewBatch returns an empty batch of the given column count.
func NewBatch(width int) *Batch {
	b := &Batch{}
	b.Reset(width)
	return b
}

// Reset empties the batch and re-shapes it to the given column count,
// keeping the capacity of any columns it already has.
func (b *Batch) Reset(width int) {
	if width < 0 {
		panic(fmt.Sprintf("relation: negative batch width %d", width))
	}
	for len(b.cols) < width {
		b.cols = append(b.cols, nil)
	}
	for i := range b.cols {
		b.cols[i] = b.cols[i][:0]
	}
	b.width = width
	b.n = 0
}

// Len returns the number of rows.
func (b *Batch) Len() int { return b.n }

// Width returns the number of columns.
func (b *Batch) Width() int { return b.width }

// Col returns column c as a flat value run of length Len. The slice aliases
// batch storage and is invalidated by Reset and Extend.
func (b *Batch) Col(c int) []int64 { return b.cols[c][:b.n] }

// Extend appends k unset rows and returns one writable view per column
// covering exactly the new rows. The producer fills the views with flat
// copies; values left unwritten are unspecified and must be masked by the
// caller's own validity accounting. The returned slice is reused by the
// next Extend call.
func (b *Batch) Extend(k int) [][]int64 {
	if k < 0 {
		panic(fmt.Sprintf("relation: negative batch extension %d", k))
	}
	if cap(b.ext) < b.width {
		b.ext = make([][]int64, b.width)
	}
	b.ext = b.ext[:b.width]
	for c := 0; c < b.width; c++ {
		col := b.cols[c]
		need := b.n + k
		if cap(col) < need {
			grown := make([]int64, b.n, growCap(cap(col), need))
			copy(grown, col[:b.n])
			col = grown
		}
		col = col[:need]
		b.cols[c] = col
		b.ext[c] = col[b.n:need:need]
	}
	b.n += k
	return b.ext
}

// growCap doubles a capacity until it holds need, so repeated extensions
// stay amortized-linear like append's growth.
func growCap(c, need int) int {
	if c < 8 {
		c = 8
	}
	for c < need {
		c *= 2
	}
	return c
}

// AppendTuple appends one row from a row-oriented tuple, which must have
// exactly Width values.
func (b *Batch) AppendTuple(t Tuple) {
	if len(t) != b.width {
		panic(fmt.Sprintf("relation: width-%d tuple appended to width-%d batch", len(t), b.width))
	}
	for c, v := range t {
		b.cols[c] = append(b.cols[c][:b.n], v)
	}
	b.n++
}

// Gather scatters row i into dst at the given destination positions:
// dst[at[c]] = Col(c)[i]. It is how a fragment reconstructs a (possibly
// wider) processing row from a projected batch; positions absent from `at`
// keep whatever dst already holds.
func (b *Batch) Gather(i int, dst Tuple, at []int) {
	if len(at) != b.width {
		panic(fmt.Sprintf("relation: gather map of %d positions for width-%d batch", len(at), b.width))
	}
	for c, p := range at {
		dst[p] = b.cols[c][i]
	}
}

// Row copies row i into dst[:Width] and returns it as a tuple; dst must
// have capacity for Width values.
func (b *Batch) Row(i int, dst Tuple) Tuple {
	dst = dst[:b.width]
	for c := range b.cols {
		dst[c] = b.cols[c][i]
	}
	return dst
}
