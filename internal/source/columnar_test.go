package source

import (
	"errors"
	"testing"

	"dqs/internal/comm"
	"dqs/internal/relation"
	"dqs/internal/sim"
)

func colTable(n int) *relation.Table {
	rows := make([]relation.Tuple, n)
	for i := range rows {
		rows[i] = relation.Tuple{int64(i), int64((i * 7) % 100), int64(i * 10)}
	}
	return &relation.Table{
		Rel:  &relation.Relation{Name: "W", Cardinality: n, Schema: relation.NewSchema("W", "a", "b", "c")},
		Rows: rows,
	}
}

// TestSourceColumnarDelivery drains a columnar source end to end: every row
// claims a window slot in order, filtered rows carry pass=false with no
// values, and passing rows carry exactly the projected live columns.
func TestSourceColumnarDelivery(t *testing.T) {
	const n = 200
	tab := colTable(n)
	keep := []int{0, 2}
	q := comm.NewQueue("W", 16)
	q.SetColumnar(len(keep))
	src, err := New("W", tab, q, sim.NewRNG(2), us(1),
		WithMeanWait(us(10)), WithColumnar(tab.Columns(), keep, 1, 50))
	if err != nil {
		t.Fatal(err)
	}
	batch := relation.NewBatch(len(keep))
	pass := make([]bool, 16)
	popped := 0
	now := us(0)
	for !(src.Exhausted() && q.Len() == 0) {
		at, ok := q.NextArrival()
		if !ok {
			t.Fatalf("queue empty but source not exhausted (popped %d)", popped)
		}
		if at > now {
			now = at
		}
		batch.Reset(len(keep))
		k := q.PopColsN(now, batch, pass[:q.Available(now)])
		if k == 0 {
			t.Fatalf("no tuples at announced arrival %v", at)
		}
		for i := 0; i < k; i++ {
			row := tab.Rows[popped]
			wantPass := row[1] < 50
			if pass[i] != wantPass {
				t.Fatalf("row %d: pass = %v, want %v", popped, pass[i], wantPass)
			}
			if wantPass {
				for j, c := range keep {
					if got := batch.Col(j)[i]; got != row[c] {
						t.Fatalf("row %d col %d: got %d, want %d", popped, c, got, row[c])
					}
				}
			}
			q.Credit(now)
			popped++
		}
	}
	if popped != n {
		t.Fatalf("delivered %d window slots, want %d (filtered rows must still claim slots)", popped, n)
	}
}

func TestSourceColumnarValidation(t *testing.T) {
	tab := colTable(10)
	cases := []struct {
		name    string
		keep    []int
		predIdx int
	}{
		{"live column past width", []int{0, 3}, -1},
		{"negative live column", []int{-1}, -1},
		{"predicate column past width", []int{0}, 3},
	}
	for _, tc := range cases {
		q := comm.NewQueue("W", 8)
		q.SetColumnar(len(tc.keep))
		if _, err := New("W", tab, q, sim.NewRNG(1), 0,
			WithColumnar(tab.Columns(), tc.keep, tc.predIdx, 5)); err == nil {
			t.Errorf("%s: New accepted invalid columnar config", tc.name)
		}
	}
}

// TestSourceColumnarMismatch: a source built without its pushdown, or with a
// projection as wide as anything but its queue's slots, is refused by name at
// construction instead of panicking inside the first pump.
func TestSourceColumnarMismatch(t *testing.T) {
	tab := colTable(10)
	q := comm.NewQueue("W", 8)
	q.SetColumnar(2)
	for name, opts := range map[string][]Option{
		"no WithColumnar":     {WithMeanWait(us(10))},
		"narrower than queue": {WithColumnar(tab.Columns(), []int{0}, -1, 0)},
		"wider than queue":    {WithColumnar(tab.Columns(), []int{0, 1, 2}, -1, 0)},
	} {
		if _, err := New("W", tab, q, sim.NewRNG(1), 0, opts...); !errors.Is(err, errColumnarMismatch) {
			t.Errorf("%s: err = %v, want errColumnarMismatch", name, err)
		}
	}
	if q.Len() != 0 {
		t.Errorf("a refused source pushed %d tuples", q.Len())
	}
}
