package exec

import (
	"reflect"
	"slices"
	"testing"
	"time"

	"dqs/internal/plan"
	"dqs/internal/relation"
	"dqs/internal/sim"
)

// cascadeWorkload builds relations A(id, k), B(id, k, k2), C(id, k2) and
// D(id, k) and the plan
//
//	j1 = A ⋈ B on A.k = B.k      (build B, probe A)
//	j2 = j1 ⋈ C on B.k2 = C.k2   (build C, probe j1)
//
// topped by j3 on A.k = D.k. With aRoot false, j3 builds j2 and D probes
// it, so chain p_A probes j1 and j2 and builds j3; with aRoot true, j3
// builds D and j2 probes it, so p_A probes j1, j2 and j3 and is the output.
// Either way p_A's second probe key, B.k2, is a build-side column of its
// first join, so the cascade reads it from the entry step 0 matched, and
// each probe fans out to a few matches.
func cascadeWorkload(t *testing.T, aRoot bool) (*plan.Node, relation.Dataset) {
	t.Helper()
	cat := relation.NewCatalog()
	rels := map[string]*relation.Relation{
		"A": cat.MustAdd("A", 600, "id", "k"),
		"B": cat.MustAdd("B", 150, "id", "k", "k2"),
		"C": cat.MustAdd("C", 60, "id", "k2"),
		"D": cat.MustAdd("D", 120, "id", "k"),
	}
	g := relation.NewGenerator(sim.NewRNG(5))
	ds := relation.Dataset{
		"A": g.MustGenerate(rels["A"], relation.ColumnSpec{Col: "k", Domain: 50}),
		"B": g.MustGenerate(rels["B"], relation.ColumnSpec{Col: "k", Domain: 50}, relation.ColumnSpec{Col: "k2", Domain: 30}),
		"C": g.MustGenerate(rels["C"], relation.ColumnSpec{Col: "k2", Domain: 30}),
		"D": g.MustGenerate(rels["D"], relation.ColumnSpec{Col: "k", Domain: 50}),
	}
	b := plan.NewBuilder()
	col := func(r, c string) relation.ColRef { return relation.ColRef{Rel: r, Col: c} }
	scans := map[string]*plan.Node{}
	for name, rel := range rels {
		s, err := b.Scan(rel, nil)
		if err != nil {
			t.Fatal(err)
		}
		scans[name] = s
	}
	must := func(n *plan.Node, err error) *plan.Node {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	j1 := must(b.HashJoin(scans["B"], scans["A"], col("B", "k"), col("A", "k")))
	j2 := must(b.HashJoin(scans["C"], j1, col("C", "k2"), col("B", "k2")))
	var j3 *plan.Node
	if aRoot {
		j3 = must(b.HashJoin(scans["D"], j2, col("D", "k"), col("A", "k")))
	} else {
		j3 = must(b.HashJoin(j2, scans["D"], col("A", "k"), col("D", "k")))
	}
	root := must(b.Output(j3))
	st := plan.NewStats()
	for _, c := range []relation.ColRef{col("A", "k"), col("B", "k"), col("D", "k")} {
		st.SetDomain(c, 50)
	}
	st.SetDomain(col("B", "k2"), 30)
	st.SetDomain(col("C", "k2"), 30)
	if err := st.Annotate(root); err != nil {
		t.Fatal(err)
	}
	return root, ds
}

// cascadeCF runs every chain p_A probes on a fresh runtime, materializes
// MF(p_A) and returns the runtime, p_A's chain and the MF, whose temp feeds
// a segment of p_A.
func cascadeCF(t *testing.T, aRoot bool, cfg Config) (*Runtime, *plan.Chain, *Fragment) {
	t.Helper()
	root, ds := cascadeWorkload(t, aRoot)
	rt, err := NewRuntime(cfg, root, ds, nil)
	if err != nil {
		t.Fatal(err)
	}
	cA, _ := rt.Dec.ChainOf("A")
	for _, j := range cA.Joins {
		for _, c := range rt.Dec.Chains {
			if c.BuildsFor == j {
				drainFrag(t, rt, rt.NewPCFragment(c))
			}
		}
	}
	mf := rt.NewSegment(cA, 0, 0, nil, false)
	drainFrag(t, rt, mf)
	return rt, cA, mf
}

// tableRows returns a table's entries in insertion order.
func tableRows(rt *Runtime, j *plan.Node) []relation.Tuple {
	ht := rt.table(j).ht
	rows := make([]relation.Tuple, ht.Rows())
	for e := range rows {
		rows[e] = slices.Clone(ht.Entry(int32(e)))
	}
	return rows
}

// TestChunkedTwoStepOverflowMatchesPerTupleDriver pins the index cascade
// where its column map matters: a temp-fed CF(p_A) whose second probe key
// is a build-side column of its first join, and whose build overflows
// partway through a chunk — and partway through one slot's results, so the
// results gathered into the table and those stranded split a slot. Input
// consumed, stranded rows, reader position, the built table's entries in
// order and the clock must agree with refProcessBatch at the overflow and
// after the resumed run completes.
func TestChunkedTwoStepOverflowMatchesPerTupleDriver(t *testing.T) {
	type state struct {
		processed       int64
		pending, unread int
		rows            []relation.Tuple
		clock           time.Duration
	}
	run := func(process func(*Fragment, int) (int, bool), room int64) (atOverflow, atEnd state) {
		cfg := testConfig()
		rt, cA, mf := cascadeCF(t, false, cfg)
		rt.Med.Mem.WriteThrough() // no resident pages: the grant holds tables only
		cf := rt.NewSegment(cA, 0, len(cA.Joins), mf.Temp, true)
		if len(cf.steps) != 2 || cf.Term != TermBuild || cf.steps[1].src != 0 {
			t.Fatalf("%s: %d steps, terminal %v, second key from %d; want two steps, the second keyed on step 0's entry, into a build",
				cf.Label, len(cf.steps), cf.Term, cf.steps[1].src)
		}
		hold := rt.Med.Mem.Bind("", "test")
		if !rt.Med.Mem.Reserve(hold, rt.Med.Mem.Available()-room*int64(cfg.Params.TupleSize)) {
			t.Fatal("could not narrow the grant")
		}
		snap := func() state {
			return state{cf.Processed(), len(cf.pending), cf.Remaining(), tableRows(rt, cA.BuildsFor), rt.Now()}
		}
		drive := func(wantOverflow bool) {
			for !cf.Done() {
				n, overflow := process(cf, cfg.BatchTuples)
				if overflow {
					if !wantOverflow {
						t.Fatal("fragment overflowed again after memory was freed")
					}
					return
				}
				if n == 0 && !cf.Done() {
					at, ok := cf.NextArrival()
					if !ok {
						t.Fatalf("%s starved", cf.Label)
					}
					rt.Med.Clock.Stall(at)
				}
			}
			if wantOverflow {
				t.Fatal("fragment completed without overflowing")
			}
		}
		drive(true)
		atOverflow = snap()
		rt.Med.Mem.Release(hold, rt.Med.Mem.Held(hold))
		drive(false)
		return atOverflow, snap()
	}
	// The room one row larger than the last one that overflows at the same
	// slot: that slot's first results go in and at least two are stranded.
	var prev state
	for room := int64(300); room < 340; room++ {
		gotOver, gotEnd := run((*Fragment).ProcessBatch, room)
		midSlot := gotOver.processed == prev.processed && gotOver.pending == prev.pending-1
		if prev = gotOver; !midSlot || gotOver.pending < 2 || gotOver.processed%256 == 0 {
			continue
		}
		wantOver, wantEnd := run(refProcessBatch, room)
		t.Logf("room %d: overflow after %d inputs with %d rows stranded; %d rows built in all",
			room, gotOver.processed, gotOver.pending, len(gotEnd.rows))
		if !reflect.DeepEqual(gotOver, wantOver) {
			t.Errorf("at overflow:\nchunked:   %+v\nper-tuple: %+v", gotOver, wantOver)
		}
		if !reflect.DeepEqual(gotEnd, wantEnd) {
			t.Errorf("after resume:\nchunked:   %+v\nper-tuple: %+v", gotEnd, wantEnd)
		}
		return
	}
	t.Fatal("no room in [300, 340) overflows mid-slot and mid-chunk")
}

// TestChunkedSplitTempMatchesPerTupleDriver runs a temp-fed non-last
// segment of p_A over both of its steps — a split whose rows go to a temp —
// through ProcessBatch and through refProcessBatch, and requires the same
// temp, row by row as read back from its pages, the same page count and
// durability instant, and the same clock.
func TestChunkedSplitTempMatchesPerTupleDriver(t *testing.T) {
	type state struct {
		rows    []relation.Tuple
		pages   int
		durable time.Duration
		clock   time.Duration
	}
	run := func(process func(*Fragment, int) (int, bool)) state {
		cfg := testConfig()
		cfg.Params.PageSize = 64 * cfg.Params.TupleSize // several pages, some filled mid-slot
		rt, cA, mf := cascadeCF(t, false, cfg)
		split := rt.NewSegment(cA, 0, len(cA.Joins), mf.Temp, false)
		if len(split.steps) != 2 || split.Term != TermTemp {
			t.Fatalf("%s: %d steps, terminal %v; want a two-step temp segment", split.Label, len(split.steps), split.Term)
		}
		drainBy(t, rt, split, process)
		clock := rt.Now()
		return state{readTemp(rt, split.Temp), split.Temp.Pages(), split.Temp.DurableAt(), clock}
	}
	got, want := run((*Fragment).ProcessBatch), run(refProcessBatch)
	t.Logf("%d rows on %d pages", len(got.rows), got.pages)
	if len(got.rows) < 2*600 || got.pages < 4 {
		t.Fatalf("the split wrote %d rows on %d pages: too few to fan out and fill pages", len(got.rows), got.pages)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("chunked and per-tuple splits differ:\nchunked:   %d rows, %d pages, durable %v, clock %v\nper-tuple: %d rows, %d pages, durable %v, clock %v",
			len(got.rows), got.pages, got.durable, got.clock, len(want.rows), want.pages, want.durable, want.clock)
	}
}

// TestChunkedStreamMatchesPerTupleDriver runs a temp-fed CF(p_A) that
// probes three joins into the query output with a Sink attached, through
// ProcessBatch and through refProcessBatch, and requires every streamed
// row, at its instant and in order, the output count and the clock to
// agree.
func TestChunkedStreamMatchesPerTupleDriver(t *testing.T) {
	type emitted struct {
		at  time.Duration
		row relation.Tuple
	}
	type state struct {
		out   []emitted
		rows  int64
		clock time.Duration
	}
	run := func(process func(*Fragment, int) (int, bool)) state {
		rt, cA, mf := cascadeCF(t, true, testConfig())
		var out []emitted
		rt.SetSink(SinkFunc(func(at time.Duration, row relation.Tuple) {
			out = append(out, emitted{at, slices.Clone(row)})
		}))
		cf := rt.NewSegment(cA, 0, len(cA.Joins), mf.Temp, true)
		if len(cf.steps) != 3 || cf.Term != TermOutput {
			t.Fatalf("%s: %d steps, terminal %v; want three steps into the output", cf.Label, len(cf.steps), cf.Term)
		}
		drainBy(t, rt, cf, process)
		return state{out, rt.outputRows, rt.Now()}
	}
	got, want := run((*Fragment).ProcessBatch), run(refProcessBatch)
	t.Logf("%d rows streamed", len(got.out))
	if len(got.out) < 600 || int64(len(got.out)) != got.rows {
		t.Fatalf("streamed %d rows of %d output: too few to fan out, or a row not streamed", len(got.out), got.rows)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("chunked streamed %d rows (clock %v), per-tuple %d (clock %v), or the rows differ",
			got.rows, got.clock, want.rows, want.clock)
	}
}
