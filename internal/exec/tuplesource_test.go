package exec

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"dqs/internal/mem"
	"dqs/internal/relation"
)

func TestQueueSourceAccounting(t *testing.T) {
	w := smallFig5(t)
	rt, err := NewRuntime(testConfig(), w.Root, w.Dataset, uniform(w, time.Microsecond))
	if err != nil {
		t.Fatal(err)
	}
	src := rt.qsrcs["E"]
	total := 1500 // |E| at small scale
	if got := src.Remaining(); got != total {
		t.Fatalf("Remaining = %d, want %d", got, total)
	}
	if src.Exhausted() {
		t.Fatal("fresh source exhausted")
	}
	// Drain everything, tracking Remaining.
	popped := 0
	for !src.Exhausted() {
		at, ok := src.NextArrival()
		if !ok {
			t.Fatalf("no arrival with %d popped", popped)
		}
		rt.Clock.Stall(at)
		n := src.Available(rt.Now())
		if n == 0 {
			t.Fatalf("no availability at announced arrival %v", at)
		}
		if got := src.pop(rt.Now(), 1<<40).n; got != n {
			t.Fatalf("pop moved %d of %d available", got, n)
		}
		for i := 0; i < n; i++ {
			src.Credit(rt.Now())
		}
		popped += n
		if got := src.Remaining(); got != total-popped {
			t.Fatalf("Remaining = %d after %d pops", got, popped)
		}
	}
	if popped != total {
		t.Errorf("popped %d, want %d", popped, total)
	}
	if _, ok := src.NextArrival(); ok {
		t.Error("exhausted source announced an arrival")
	}
}

func TestResultStringAndTotalWork(t *testing.T) {
	w := smallFig5(t)
	rt, err := NewRuntime(testConfig(), w.Root, w.Dataset, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := runMA(rt)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalWork() < res.BusyTime {
		t.Errorf("TotalWork %v below BusyTime %v", res.TotalWork(), res.BusyTime)
	}
	s := res.String()
	for _, want := range []string{"MA:", "response=", "out=", "mat="} {
		if !strings.Contains(s, want) {
			t.Errorf("Result.String() = %q missing %q", s, want)
		}
	}
}

// readTemp reads a closed temp whose rows have the given schema back through
// a tempSource, stalling on page reads, and returns its full-width rows and
// the stored positions. A Pop into the chunk's batch panics unless the
// batch's width is the temp's stored width, so len(at) is what the temp
// stores.
func readTemp(rt *Runtime, temp *mem.Temp, schema *relation.Schema) (rows []relation.Tuple, at []int) {
	ts := rt.tempSource(temp.NewReader(rt.Cfg.PrefetchPages), schema)
	for !ts.Exhausted() {
		c := ts.pop(rt.Now(), 1<<40)
		if c.n == 0 {
			next, _ := ts.NextArrival()
			rt.Clock.Stall(next)
		}
		for i := 0; i < c.n; i++ {
			rows = append(rows, slices.Clone(c.row(i)))
		}
	}
	return rows, ts.ch.at
}

// live copies t with every position outside keep zeroed: the row a
// projecting wrapper delivers.
func live(t relation.Tuple, keep []int) relation.Tuple {
	out := make(relation.Tuple, len(t))
	for _, p := range keep {
		out[p] = t[p]
	}
	return out
}

// TestTempStoredWidth pins that a temp stores only the plan's live columns
// and reads back what was appended, zero at the dead positions: on Figure 5,
// MF(p_A) stores A.k1 and A.k2 of A's three columns, and the split segment
// p_A[0:1] over A⋈E stores A.k1, A.k2 and E.k1 of five.
func TestTempStoredWidth(t *testing.T) {
	w := smallFig5(t)
	rt, err := NewRuntime(testConfig(), w.Root, w.Dataset, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := runChainsUpTo(t, rt, "A")
	mf := rt.NewSegment(c, 0, 0, nil, false)
	drainFrag(t, rt, mf)
	split := rt.NewSegment(c, 0, 1, mf.Temp, false)
	drainFrag(t, rt, split)

	col := func(rel, c string) relation.ColRef { return relation.ColRef{Rel: rel, Col: c} }
	sA, sAE := c.Scan.Schema, c.Joins[0].Schema
	keepA := []int{sA.MustIndexOf(col("A", "k1")), sA.MustIndexOf(col("A", "k2"))}
	keepAE := []int{sAE.MustIndexOf(col("A", "k1")), sAE.MustIndexOf(col("A", "k2")), sAE.MustIndexOf(col("E", "k1"))}

	var wantA, wantAE []relation.Tuple
	aKey, eKey := keepA[0], w.Dataset["E"].Rel.Schema.MustIndexOf(col("E", "k1"))
	for _, a := range w.Dataset["A"].Rows {
		wantA = append(wantA, live(a, keepA))
		for _, e := range w.Dataset["E"].Rows {
			if e[eKey] == a[aKey] {
				wantAE = append(wantAE, live(relation.Concat(a, e), keepAE))
			}
		}
	}
	if len(wantAE) == 0 {
		t.Fatal("A⋈E is empty")
	}
	byValue := func(a, b relation.Tuple) int { return slices.Compare(a, b) }
	slices.SortFunc(wantAE, byValue)

	for _, tc := range []struct {
		frag   *Fragment
		schema *relation.Schema
		keep   []int
		want   []relation.Tuple
		sorted bool
	}{
		{mf, sA, keepA, wantA, false},
		{split, sAE, keepAE, wantAE, true},
	} {
		got, at := readTemp(rt, tc.frag.Temp, tc.schema)
		if !slices.Equal(at, tc.keep) {
			t.Errorf("%s stores positions %v of %s, want %v", tc.frag.Label, at, tc.schema, tc.keep)
		}
		if tc.sorted {
			slices.SortFunc(got, byValue)
		}
		if !slices.EqualFunc(got, tc.want, slices.Equal) {
			t.Errorf("%s read back %d rows differing from the %d appended (first got %v, want %v)",
				tc.frag.Label, len(got), len(tc.want), firstRow(got), firstRow(tc.want))
		}
	}
}

func firstRow(rows []relation.Tuple) string {
	if len(rows) == 0 {
		return "none"
	}
	return fmt.Sprint(rows[0])
}
