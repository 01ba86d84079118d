package operator

import (
	"testing"

	"dqs/internal/relation"
)

// TestHashTableReserveAvoidsGrowth pins the pre-sizing contract: after
// Reserve(width, rows) on a new table, inserting exactly `rows` tuples of
// that width — even all-distinct keys, the worst case for the bucket array —
// and the first probe, which links them, perform zero allocations, i.e. no
// arena growth and no rehash in the link pass.
func TestHashTableReserveAvoidsGrowth(t *testing.T) {
	const rows = 1000
	tuples := make([]relation.Tuple, rows)
	for i := range tuples {
		tuples[i] = relation.Tuple{int64(i), int64(-i)}
	}
	var h *HashTable
	reserve := func() {
		h = NewHashTable(0)
		h.Reserve(2, rows)
	}
	fill := func() {
		reserve()
		for _, tup := range tuples {
			h.Insert(tup)
		}
		if m := h.Probe(rows - 1); m.Next() == nil {
			t.Fatal("first probe missed the last inserted key")
		}
	}
	fill()
	if h.Rows() != rows || h.DistinctKeys() != rows {
		t.Fatalf("after fill: rows=%d keys=%d", h.Rows(), h.DistinctKeys())
	}
	if got, want := testing.AllocsPerRun(10, fill), testing.AllocsPerRun(10, reserve); got != want {
		t.Errorf("new table, Reserve+Insert×%d+first probe allocates %v times per run, Reserve alone %v: want no allocation after Reserve", rows, got, want)
	}
	// The reservation is a floor, not a ceiling: inserting past it still
	// works (growing as needed).
	fill()
	for i := 0; i < 100; i++ {
		h.Insert(relation.Tuple{int64(rows + i), 0})
	}
	if h.Rows() != rows+100 {
		t.Fatalf("rows after overflow inserts = %d", h.Rows())
	}
}

func TestHashTableReserveMatchesUnreservedProbes(t *testing.T) {
	// Reservation must not change probe results: same inserts, same chains.
	a, b := NewHashTable(0), NewHashTable(0)
	a.Reserve(2, 64)
	for i := 0; i < 200; i++ {
		tup := relation.Tuple{int64(i % 17), int64(i)}
		a.Insert(tup)
		b.Insert(tup)
	}
	for k := int64(0); k < 17; k++ {
		ita, itb := a.Probe(k), b.Probe(k)
		for {
			ma, mb := ita.Next(), itb.Next()
			if (ma == nil) != (mb == nil) {
				t.Fatalf("key %d: chain lengths differ", k)
			}
			if ma == nil {
				break
			}
			if ma[1] != mb[1] {
				t.Fatalf("key %d: match %v vs %v", k, ma, mb)
			}
		}
	}
}

// TestHashTableHoldsMatchesReserve pins Holds to Reserve: a table holds a
// reservation exactly when reserving it leaves its storage as it was.
func TestHashTableHoldsMatchesReserve(t *testing.T) {
	for _, c := range []struct{ width, rows int }{
		{3, 1}, {3, 1000}, {3, 1001}, {1, 3000}, {6, 500}, {6, 501}, {0, 1 << 20}, {3, 0},
	} {
		h := NewHashTable(0)
		h.Reserve(3, 1000)
		fp, holds := h.Footprint(), h.Holds(c.width, c.rows)
		h.Reserve(c.width, c.rows)
		if grew := h.Footprint() != fp; holds == grew {
			t.Errorf("Holds(%d, %d) = %v, but Reserve grew the table: %v", c.width, c.rows, holds, grew)
		}
	}
}

func TestHashTableReservePanicsOnNonEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Reserve on a non-empty table did not panic")
		}
	}()
	h := NewHashTable(0)
	h.Insert(relation.Tuple{1, 2})
	h.Reserve(2, 10)
}

func TestHashTableReserveIgnoresNonPositiveSizes(t *testing.T) {
	h := NewHashTable(0)
	h.Reserve(0, 100)
	h.Reserve(2, 0)
	h.Reserve(-1, -1)
	h.Insert(relation.Tuple{1, 2})
	if h.Rows() != 1 {
		t.Fatalf("rows = %d", h.Rows())
	}
}

// TestProbeConcatCascadeDoesNotAllocate pins the per-probe-hit allocation
// fix: a warm probe cascade — ProbeConcat building concatenated results
// through a recycled arena, and Head/Chain walking matches into a recycled
// index list that Extend gathers into another table — runs allocation-free.
func TestProbeConcatCascadeDoesNotAllocate(t *testing.T) {
	h := NewHashTable(0)
	h.Reserve(2, 256)
	for i := 0; i < 256; i++ {
		h.Insert(relation.Tuple{int64(i % 16), int64(i)})
	}
	var arena relation.Arena
	buf := make([]relation.Tuple, 0, 64)
	probe := relation.Tuple{3, 77}
	var ents []int32
	dst := NewHashTable(0)
	cascade := func() {
		arena.Reset()
		buf, _ = h.ProbeConcat(buf[:0], probe, 3, &arena)
		ents = h.Chain(ents[:0], h.Head(5))
		dst.Reset()
		rows := dst.Extend(4, len(ents))
		for i, e := range ents {
			copy(rows[i*4:], probe)
			copy(rows[i*4+2:], h.Entry(e))
		}
	}
	cascade() // warm arena and match buffer capacity
	if got := testing.AllocsPerRun(20, cascade); got != 0 {
		t.Errorf("probe cascade allocates %v times per run, want 0", got)
	}
}
