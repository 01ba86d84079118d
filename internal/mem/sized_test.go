package mem

import (
	"testing"
	"time"

	"dqs/internal/relation"
)

// TestCreateSizedAvoidsArenaGrowth pins the pre-sizing contract: a temp
// created with an accurate row hint materializes without re-copying its
// tuple arena — appending within the hint performs zero arena allocations.
func TestCreateSizedAvoidsArenaGrowth(t *testing.T) {
	store, _, _ := newStore()
	schema := relation.NewSchema("x", "id", "v")
	const n = 500
	temp := store.CreateSized("t", schema, n)
	tup := relation.Tuple{0, 0}
	fill := func() {
		for i := 0; i < n; i++ {
			tup[0], tup[1] = int64(i), int64(-i)
			temp.Append(tup)
		}
	}
	// Page bookkeeping (pageDone) still grows; only the tuple arena is
	// pinned, so compare capacities directly.
	before := cap(temp.data)
	fill()
	if cap(temp.data) != before {
		t.Errorf("arena regrew within the hint: cap %d -> %d", before, cap(temp.data))
	}
	if before < n*schema.Width() {
		t.Errorf("arena cap %d below hinted %d values", before, n*schema.Width())
	}
	temp.Close()
	if temp.Len() != n {
		t.Fatalf("Len = %d", temp.Len())
	}
}

// TestCreateSizedMatchesCreate pins that the hint steers allocation only:
// contents, page layout and durability bookkeeping are identical to an
// unhinted temp fed the same rows.
func TestCreateSizedMatchesCreate(t *testing.T) {
	store, _, _ := newStore()
	schema := relation.NewSchema("x", "id")
	a := store.CreateSized("a", schema, 300)
	b := store.CreateSized("b", schema, 0)
	for i := 0; i < 300; i++ {
		a.Append(relation.Tuple{int64(i)})
		b.Append(relation.Tuple{int64(i)})
	}
	a.Close()
	b.Close()
	if a.Len() != b.Len() || a.Pages() != b.Pages() {
		t.Fatalf("sized temp diverged: len %d/%d pages %d/%d", a.Len(), b.Len(), a.Pages(), b.Pages())
	}
	ra, rb := a.NewReader(1), b.NewReader(1)
	var now time.Duration = 1 << 62
	for i := 0; i < 300; i++ {
		va, vb := pop(ra, now), pop(rb, now)
		if va[0] != vb[0] {
			t.Fatalf("row %d: %v vs %v", i, va, vb)
		}
	}
}

// TestCreateSizedIgnoresNonPositiveHints pins the degenerate hints.
func TestCreateSizedIgnoresNonPositiveHints(t *testing.T) {
	store, _, _ := newStore()
	schema := relation.NewSchema("x", "id")
	for _, rows := range []int{0, -5} {
		temp := store.CreateSized("t", schema, rows)
		temp.Append(relation.Tuple{1})
		temp.Close()
		if temp.Len() != 1 {
			t.Fatalf("hint %d: Len = %d", rows, temp.Len())
		}
	}
}
