package relation

import (
	"testing"
)

func TestBatchExtendAppendsColumnMajor(t *testing.T) {
	b := NewBatch(3)
	if b.Width() != 3 || b.Len() != 0 {
		t.Fatalf("fresh batch: width=%d len=%d", b.Width(), b.Len())
	}
	views := b.Extend(2)
	if len(views) != 3 {
		t.Fatalf("Extend returned %d column views, want 3", len(views))
	}
	for c := range views {
		if len(views[c]) != 2 {
			t.Fatalf("column %d view has %d slots, want 2", c, len(views[c]))
		}
		views[c][0] = int64(10*c + 1)
		views[c][1] = int64(10*c + 2)
	}
	if b.Len() != 2 {
		t.Fatalf("Len = %d after Extend(2)", b.Len())
	}
	// A second Extend appends after the first rows.
	more := b.Extend(1)
	for c := range more {
		more[c][0] = int64(10*c + 3)
	}
	for c := 0; c < 3; c++ {
		col := b.Col(c)
		want := []int64{int64(10*c + 1), int64(10*c + 2), int64(10*c + 3)}
		for i, w := range want {
			if col[i] != w {
				t.Fatalf("col %d = %v, want %v", c, col, want)
			}
		}
	}
}

func TestBatchAppendTupleAndRow(t *testing.T) {
	b := NewBatch(2)
	b.AppendTuple(Tuple{1, 2})
	b.AppendTuple(Tuple{3, 4})
	if got := b.Row(1, make(Tuple, 2)); got[0] != 3 || got[1] != 4 {
		t.Fatalf("Row(1) = %v", got)
	}
}

func TestBatchGatherScattersByMap(t *testing.T) {
	// A 2-column batch holding live columns of a 4-wide schema at positions
	// 1 and 3: Gather must scatter into those positions and leave the dead
	// positions untouched by the batch (the caller zeroes them).
	b := NewBatch(2)
	b.AppendTuple(Tuple{7, 9})
	dst := Tuple{0, 0, 0, 0}
	b.Gather(0, dst, []int{1, 3})
	want := Tuple{0, 7, 0, 9}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("Gather dst = %v, want %v", dst, want)
		}
	}
}

func TestBatchResetKeepsCapacityAndRewidths(t *testing.T) {
	b := NewBatch(2)
	for i := 0; i < 100; i++ {
		b.AppendTuple(Tuple{int64(i), int64(-i)})
	}
	b.Reset(2)
	if b.Len() != 0 || b.Width() != 2 {
		t.Fatalf("after Reset: len=%d width=%d", b.Len(), b.Width())
	}
	// Same width, warmed capacity: refilling must not allocate.
	refill := func() {
		b.Reset(2)
		views := b.Extend(100)
		for c := range views {
			for i := range views[c] {
				views[c][i] = int64(i)
			}
		}
	}
	refill()
	if got := testing.AllocsPerRun(20, refill); got != 0 {
		t.Errorf("steady-state Reset+Extend allocates %v times per run, want 0", got)
	}
	// Reset can change width.
	b.Reset(5)
	if b.Width() != 5 || b.Len() != 0 {
		t.Fatalf("after Reset(5): width=%d len=%d", b.Width(), b.Len())
	}
	b.AppendTuple(Tuple{1, 2, 3, 4, 5})
	if got := b.Col(4); got[0] != 5 {
		t.Fatalf("col 4 = %v", got)
	}
}

func TestBatchGatherDoesNotAllocate(t *testing.T) {
	b := NewBatch(3)
	for i := 0; i < 64; i++ {
		b.AppendTuple(Tuple{int64(i), int64(i * 2), int64(i * 3)})
	}
	dst := make(Tuple, 6)
	at := []int{0, 2, 4}
	gather := func() {
		for i := 0; i < b.Len(); i++ {
			b.Gather(i, dst, at)
		}
	}
	if got := testing.AllocsPerRun(20, gather); got != 0 {
		t.Errorf("Gather allocates %v times per run, want 0", got)
	}
}

func TestTableColumnsTransposesAndCaches(t *testing.T) {
	rows := []Tuple{{1, 10, 100}, {2, 20, 200}, {3, 30, 300}}
	tbl := &Table{Rows: rows}
	cols := tbl.Columns()
	if len(cols) != 3 {
		t.Fatalf("Columns returned %d columns", len(cols))
	}
	for c := range cols {
		if len(cols[c]) != len(rows) {
			t.Fatalf("column %d has %d rows, want %d", c, len(cols[c]), len(rows))
		}
		for r := range rows {
			if cols[c][r] != rows[r][c] {
				t.Fatalf("cols[%d][%d] = %d, want %d", c, r, cols[c][r], rows[r][c])
			}
		}
	}
	// The transpose is computed once and cached.
	again := tbl.Columns()
	if &again[0][0] != &cols[0][0] {
		t.Error("Columns rebuilt the transpose instead of returning the cache")
	}
}

func TestTableColumnsEmptyTable(t *testing.T) {
	tbl := &Table{Rel: &Relation{Name: "R", Schema: NewSchema("R", "a", "b")}}
	cols := tbl.Columns()
	if len(cols) != 2 {
		t.Fatalf("Columns on empty table returned %d columns", len(cols))
	}
	for c := range cols {
		if len(cols[c]) != 0 {
			t.Fatalf("empty table column %d has %d rows", c, len(cols[c]))
		}
	}
}
