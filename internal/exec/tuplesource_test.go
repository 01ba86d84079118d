package exec

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"dqs/internal/mem"
	"dqs/internal/operator"
	"dqs/internal/relation"
)

func TestQueueSourceAccounting(t *testing.T) {
	w := smallFig5(t)
	rt, err := NewRuntime(testConfig(), w.Root, w.Dataset, uniform(w, time.Microsecond))
	if err != nil {
		t.Fatal(err)
	}
	cE, _ := rt.Dec.ChainOf("E")
	src := rt.queueIn(cE)
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
		rt.Med.Clock.Stall(at)
		n := src.Available(rt.Now())
		if n == 0 {
			t.Fatalf("no availability at announced arrival %v", at)
		}
		var c chunk
		if src.pop(&c, rt.Now(), 1<<40); c.n != n {
			t.Fatalf("pop moved %d of %d available", c.n, n)
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

// readTemp reads a closed temp back through a tempSource, stalling on page
// reads, and returns its rows, each of the width the temp stores.
func readTemp(rt *Runtime, temp *mem.Temp) (rows []relation.Tuple) {
	ts := tempSource{temp.NewReader(rt.Med.Cfg.PrefetchPages)}
	var c chunk
	for !ts.Exhausted() {
		ts.pop(&c, rt.Now(), 1<<40)
		if c.n == 0 {
			next, _ := ts.NextArrival()
			rt.Med.Clock.Stall(next)
		}
		for i := 0; i < c.n; i++ {
			row := make(relation.Tuple, len(c.cols))
			for col, v := range c.cols {
				row[col] = v[i]
			}
			rows = append(rows, row)
		}
	}
	return rows
}

// project returns t's values at the positions keep, in order: the row a
// plan node's Live schema carries.
func project(t relation.Tuple, keep []int) relation.Tuple {
	out := make(relation.Tuple, len(keep))
	for i, p := range keep {
		out[i] = t[p]
	}
	return out
}

// TestTempStoredWidth pins that a temp is given the rows of its plan node's
// Live schema and reads them back as appended: on Figure 5, MF(p_A) stores
// A.k1 and A.k2 of A's three columns, and the split segment p_A[0:1] over
// A⋈E stores A.k1, A.k2 and E.k1 of five.
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
	liveA := []relation.ColRef{col("A", "k1"), col("A", "k2")}
	liveAE := []relation.ColRef{col("A", "k1"), col("A", "k2"), col("E", "k1")}
	keepA := []int{sA.MustIndexOf(liveA[0]), sA.MustIndexOf(liveA[1])}
	keepAE := []int{sAE.MustIndexOf(liveAE[0]), sAE.MustIndexOf(liveAE[1]), sAE.MustIndexOf(liveAE[2])}

	var wantA, wantAE []relation.Tuple
	aKey, eKey := keepA[0], w.Dataset["E"].Rel.Schema.MustIndexOf(col("E", "k1"))
	for _, a := range w.Dataset["A"].Rows {
		wantA = append(wantA, project(a, keepA))
		for _, e := range w.Dataset["E"].Rows {
			if e[eKey] == a[aKey] {
				wantAE = append(wantAE, project(relation.Concat(a, e), keepAE))
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
		live   []relation.ColRef
		want   []relation.Tuple
		sorted bool
	}{
		{mf, c.Scan.Live, liveA, wantA, false},
		{split, c.Joins[0].Live, liveAE, wantAE, true},
	} {
		if !slices.Equal(tc.schema.Cols, tc.live) {
			t.Errorf("%s stores %s, want %v", tc.frag.Label, tc.schema, tc.live)
		}
		got := readTemp(rt, tc.frag.Temp)
		if tc.sorted {
			slices.SortFunc(got, byValue)
		}
		if !slices.EqualFunc(got, tc.want, slices.Equal) {
			t.Errorf("%s read back %d rows differing from the %d appended (first got %v, want %v)",
				tc.frag.Label, len(got), len(tc.want), firstRow(got), firstRow(tc.want))
		}
	}
}

// builtWidth probes ht with the values of column key of its base relation
// until one matches and returns the width of that key's first entry.
func builtWidth(t *testing.T, ht *operator.HashTable, ds relation.Dataset, key relation.ColRef) int {
	t.Helper()
	tab := ds[key.Rel]
	k := tab.Rel.Schema.MustIndexOf(key)
	for _, r := range tab.Rows {
		m := ht.Probe(r[k])
		if e := m.Next(); e != nil {
			return len(e)
		}
	}
	t.Fatalf("no value of %s is in the table", key)
	return 0
}

// TestTablesHoldLiveWidthRows pins that every hash table holds entries of
// its input node's Live width, never the full schema's: on Figure 5, each
// build table as its builder chain completes, and both tables of each DPHJ
// join once every wrapper but the last has been drained and the last has one
// tuple left.
func TestTablesHoldLiveWidthRows(t *testing.T) {
	w := smallFig5(t)
	rt, err := NewRuntime(testConfig(), w.Root, w.Dataset, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range IteratorOrder(rt.Dec) {
		drainFrag(t, rt, rt.NewPCFragment(c))
		j := c.BuildsFor
		if j == nil {
			continue
		}
		if got, want := builtWidth(t, rt.table(j).ht, w.Dataset, j.BuildKey), j.Build.Live.Width(); got != want {
			t.Errorf("J%d's build table holds width-%d entries, want %d of %s", j.ID, got, want, j.Build.Schema)
		}
	}

	rt, err = NewRuntime(testConfig(), w.Root, w.Dataset, nil)
	if err != nil {
		t.Fatal(err)
	}
	feeds := rt.NewDPHJFeeds()
	for _, f := range feeds[:len(feeds)-1] {
		drainFrag(t, rt, f)
	}
	last := feeds[len(feeds)-1]
	for last.Remaining() > 1 {
		if n, _ := last.ProcessBatch(last.Remaining() - 1); n == 0 {
			at, _ := last.NextArrival()
			rt.Med.Clock.Stall(at)
		}
	}
	for i, j := range rt.Dec.Joins {
		sj := &rt.net.joins[i]
		if got, want := builtWidth(t, sj.buildTable, w.Dataset, j.BuildKey), j.Build.Live.Width(); got != want {
			t.Errorf("DPHJ J%d's build-side table holds width-%d entries, want %d", j.ID, got, want)
		}
		if got, want := builtWidth(t, sj.probeTable, w.Dataset, j.ProbeKey), j.Probe.Live.Width(); got != want {
			t.Errorf("DPHJ J%d's probe-side table holds width-%d entries, want %d", j.ID, got, want)
		}
	}
}

func firstRow(rows []relation.Tuple) string {
	if len(rows) == 0 {
		return "none"
	}
	return fmt.Sprint(rows[0])
}
