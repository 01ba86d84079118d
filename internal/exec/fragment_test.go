package exec

import (
	"reflect"
	"slices"
	"testing"
	"time"

	"dqs/internal/comm"
	"dqs/internal/plan"
	"dqs/internal/relation"
	"dqs/internal/sim"
)

// drainFrag runs a fragment to completion on its runtime, stalling on gaps.
func drainFrag(t testing.TB, rt *Runtime, f *Fragment) {
	t.Helper()
	drainBy(t, rt, f, (*Fragment).ProcessBatch)
}

// drainBy runs a fragment to completion with process, ProcessBatch or a
// reference driver, stalling on gaps.
func drainBy(t testing.TB, rt *Runtime, f *Fragment, process func(*Fragment, int) (int, bool)) {
	t.Helper()
	for !f.Done() {
		n, overflow := process(f, rt.Med.Cfg.BatchTuples)
		if overflow {
			t.Fatalf("%s overflowed", f.Label)
		}
		if n == 0 && !f.Done() {
			at, ok := f.NextArrival()
			if !ok {
				t.Fatalf("%s starved with no arrivals", f.Label)
			}
			rt.Med.Clock.Stall(at)
		}
	}
}

// runChainsUpTo executes (in dependency order) every chain needed before
// the named chain is C-schedulable.
func runChainsUpTo(t testing.TB, rt *Runtime, target string) *plan.Chain {
	t.Helper()
	var tc *plan.Chain
	for _, c := range IteratorOrder(rt.Dec) {
		if c.Scan.Rel.Name == target {
			tc = c
			break
		}
		drainFrag(t, rt, rt.NewPCFragment(c))
	}
	if tc == nil {
		t.Fatalf("chain %s not found before the root chain", target)
	}
	return tc
}

func TestSegmentSplitEquivalentToWholeChain(t *testing.T) {
	w := smallFig5(t)
	// Reference: run p_F as one PC and record the size of J11's table.
	rtRef, err := NewRuntime(testConfig(), w.Root, w.Dataset, nil)
	if err != nil {
		t.Fatal(err)
	}
	cF := runChainsUpTo(t, rtRef, "F")
	drainFrag(t, rtRef, rtRef.NewPCFragment(cF))
	wantRows := rtRef.TableRows(cF.BuildsFor)
	if wantRows == 0 {
		t.Fatal("reference build is empty")
	}

	// Split execution: p_F[0:1] materializes, then p_F[1:2] finishes.
	rt, err := NewRuntime(testConfig(), w.Root, w.Dataset, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := runChainsUpTo(t, rt, "F")
	head := rt.NewSegment(c, 0, 1, nil, false)
	drainFrag(t, rt, head)
	if head.Temp == nil || !head.Temp.Closed() {
		t.Fatal("head did not materialize")
	}
	// The head released the table it probed (J7's).
	if !rt.TableReleased(c.Joins[0]) {
		t.Error("head did not release its probed table")
	}
	tail := rt.NewSegment(c, 1, 2, head.Temp, true)
	drainFrag(t, rt, tail)
	if got := rt.TableRows(c.BuildsFor); got != wantRows {
		t.Errorf("split execution built %d rows, whole chain built %d", got, wantRows)
	}
}

func TestTopSplitMaterializesInsteadOfBuilding(t *testing.T) {
	w := smallFig5(t)
	rt, err := NewRuntime(testConfig(), w.Root, w.Dataset, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := runChainsUpTo(t, rt, "F")
	// A non-last segment covering every step must still materialize (the
	// §4.2 top split); the zero-step tail then performs the build.
	head := rt.NewSegment(c, 0, len(c.Joins), nil, false)
	if head.Term != TermTemp {
		t.Fatalf("top-split head terminal = %v, want temp", head.Term)
	}
	drainFrag(t, rt, head)
	tail := rt.NewSegment(c, len(c.Joins), len(c.Joins), head.Temp, true)
	if tail.Term != TermBuild {
		t.Fatalf("zero-step tail terminal = %v, want build", tail.Term)
	}
	drainFrag(t, rt, tail)
	if rt.TableRows(c.BuildsFor) != int64(head.Temp.Len()) {
		t.Errorf("tail built %d rows from a %d-tuple temp", rt.TableRows(c.BuildsFor), head.Temp.Len())
	}
}

func TestSegmentLabels(t *testing.T) {
	w := smallFig5(t)
	rt, err := NewRuntime(testConfig(), w.Root, w.Dataset, nil)
	if err != nil {
		t.Fatal(err)
	}
	c, _ := rt.Dec.ChainOf("F")
	if got := rt.NewSegment(c, 0, 2, nil, true).Label; got != "p_F" {
		t.Errorf("full PC label = %q", got)
	}
	mf := rt.NewSegment(c, 0, 0, nil, false)
	if mf.Label != "MF(p_F)" {
		t.Errorf("MF label = %q", mf.Label)
	}
	mf.Temp.Close()
	if got := rt.NewSegment(c, 0, 2, mf.Temp, true).Label; got != "CF(p_F)" {
		t.Errorf("CF label = %q", got)
	}
	if got := rt.NewSegment(c, 0, 1, nil, false).Label; got != "p_F[0:1]" {
		t.Errorf("head label = %q", got)
	}
}

func TestSegmentConstructorPanics(t *testing.T) {
	w := smallFig5(t)
	rt, err := NewRuntime(testConfig(), w.Root, w.Dataset, nil)
	if err != nil {
		t.Fatal(err)
	}
	c, _ := rt.Dec.ChainOf("F")
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("queue input mid-chain", func() { rt.NewSegment(c, 1, 2, nil, true) })
	mustPanic("last not reaching the end", func() { rt.NewSegment(c, 0, 1, nil, true) })
}

func TestFragmentOverflowSuspendsAndResumes(t *testing.T) {
	w := smallFig5(t)
	cfg := testConfig()
	// Slightly below E's table (60KB) plus J5's full build (~482KB): the
	// p_A fragment must overflow near the end, then finish after memory is
	// freed.
	cfg.MemoryBytes = 520 << 10
	rt, err := NewRuntime(cfg, w.Root, w.Dataset, nil)
	if err != nil {
		t.Fatal(err)
	}
	cE, _ := rt.Dec.ChainOf("E")
	drainFrag(t, rt, rt.NewPCFragment(cE))
	cA, _ := rt.Dec.ChainOf("A")
	f := rt.NewPCFragment(cA)
	overflowed := false
	for !f.Done() {
		n, overflow := f.ProcessBatch(rt.Med.Cfg.BatchTuples)
		if overflow {
			overflowed = true
			break
		}
		if n == 0 && !f.Done() {
			at, ok := f.NextArrival()
			if !ok {
				break
			}
			rt.Med.Clock.Stall(at)
		}
	}
	if !overflowed {
		t.Fatal("fragment did not overflow under a tight grant")
	}
	if f.Done() {
		t.Fatal("overflowed fragment claims completion")
	}
	rows := rt.TableRows(cA.BuildsFor)
	// Artificially free E's table memory (as a completed prober would) and
	// resume. The table itself stays: p_A still probes it.
	h := rt.table(cE.BuildsFor).holder
	rt.Med.Mem.Release(h, rt.Med.Mem.Held(h))
	for !f.Done() {
		_, overflow := f.ProcessBatch(rt.Med.Cfg.BatchTuples)
		if overflow {
			t.Fatal("fragment overflowed again after memory was freed")
		}
		if f.Done() {
			break
		}
		if f.In.Available(rt.Now()) == 0 {
			if at, ok := f.NextArrival(); ok {
				rt.Med.Clock.Stall(at)
			} else if f.In.Exhausted() {
				f.ProcessBatch(0)
			}
		}
	}
	if got := rt.TableRows(cA.BuildsFor); got <= rows {
		t.Errorf("resumed fragment did not grow the build: %d -> %d", rows, got)
	}
	if !rt.TableComplete(cA.BuildsFor) {
		t.Error("build not complete after resume")
	}
}

func TestReleaseOnlyAfterConsumption(t *testing.T) {
	w := smallFig5(t)
	rt, err := NewRuntime(testConfig(), w.Root, w.Dataset, nil)
	if err != nil {
		t.Fatal(err)
	}
	cE, _ := rt.Dec.ChainOf("E")
	drainFrag(t, rt, rt.NewPCFragment(cE))
	j := cE.BuildsFor
	if rt.TableReleased(j) {
		t.Fatal("table released before any prober ran")
	}
	if rt.Med.Mem.Used() == 0 {
		t.Fatal("no memory reserved by the build")
	}
	reservedE := rt.TableReserved(j)
	cA, _ := rt.Dec.ChainOf("A")
	drainFrag(t, rt, rt.NewPCFragment(cA))
	if !rt.TableReleased(j) {
		t.Error("table not released after its prober completed")
	}
	if rt.TableReserved(j) != 0 {
		t.Errorf("released table still reserves %d bytes", rt.TableReserved(j))
	}
	// The rows count survives release (needed for exact M-schedulability).
	if rt.TableRows(j) == 0 {
		t.Error("released table lost its row count")
	}
	_ = reservedE
}

func TestPerTupleCostMonotonicInSteps(t *testing.T) {
	w := smallFig5(t)
	rt, err := NewRuntime(testConfig(), w.Root, w.Dataset, nil)
	if err != nil {
		t.Fatal(err)
	}
	c, _ := rt.Dec.ChainOf("F")
	var prev time.Duration
	for to := 0; to <= len(c.Joins); to++ {
		got := rt.PerTupleCost(c, 0, to, true, TermBuild)
		if got < prev {
			t.Errorf("cost decreased adding step %d: %v < %v", to, got, prev)
		}
		prev = got
	}
	// Queue input costs more than temp input (receive charges).
	q := rt.PerTupleCost(c, 0, 2, true, TermBuild)
	tp := rt.PerTupleCost(c, 0, 2, false, TermBuild)
	if q <= tp {
		t.Errorf("queue-input cost %v not above temp-input cost %v", q, tp)
	}
	// A build terminal costs more than plain output.
	ob := rt.PerTupleCost(c, 0, 2, true, TermOutput)
	if q <= ob {
		t.Errorf("build terminal %v not above output terminal %v", q, ob)
	}
}

// TestOverflowUnpopKeepsEstimatorExact pins that a mid-batch memory overflow
// — a bulk pop, a partial run of Credits, then UnpopN of the unprocessed tail
// — neither double-feeds nor skips an arrival in the wrapper's rate
// estimator. The communication manager observes arrivals at every round
// boundary, as the engine does, so the estimator must end having seen each of
// the wrapper's tuples exactly once; the build size, EWMA mean and final
// clock are pinned to the values recorded while a per-tuple reference
// dataflow still existed to agree with them.
func TestOverflowUnpopKeepsEstimatorExact(t *testing.T) {
	type outcome struct {
		rows  int64
		obs   int64
		wait  time.Duration
		ok    bool
		clock time.Duration
	}
	w := smallFig5(t)
	cfg := testConfig()
	// Same tight grant as TestFragmentOverflowSuspendsAndResumes: the
	// p_A build overflows mid-batch with a large popped backlog, so
	// UnpopN returns a non-trivial tail of already-observed arrivals.
	cfg.MemoryBytes = 520 << 10
	rt, err := NewRuntime(cfg, w.Root, w.Dataset, nil)
	if err != nil {
		t.Fatal(err)
	}
	cE, _ := rt.Dec.ChainOf("E")
	drainFrag(t, rt, rt.NewPCFragment(cE))
	cA, _ := rt.Dec.ChainOf("A")
	f := rt.NewPCFragment(cA)
	overflowed := false
	for !f.Done() {
		// Round boundary: bulk-pop debt is settled, the CM observes.
		rt.Med.CM.Observe(rt.Now())
		n, overflow := f.ProcessBatch(rt.Med.Cfg.BatchTuples)
		if overflow {
			if overflowed {
				t.Fatal("fragment overflowed again after memory was freed")
			}
			overflowed = true
			// Free E's table memory (as a completed prober would) and
			// resume; p_A still probes the table.
			h := rt.table(cE.BuildsFor).holder
			rt.Med.Mem.Release(h, rt.Med.Mem.Held(h))
			continue
		}
		if f.Done() {
			break
		}
		if n == 0 {
			if f.In.Available(rt.Now()) == 0 {
				if at, ok := f.NextArrival(); ok {
					rt.Med.Clock.Stall(at)
				} else if f.In.Exhausted() {
					f.ProcessBatch(0)
				}
			}
		}
	}
	if !overflowed {
		t.Fatal("fragment did not overflow under the tight grant")
	}
	rt.Med.CM.Observe(rt.Now())
	q, okQ := rt.Med.CM.Queue("A")
	if !okQ {
		t.Fatal("queue for wrapper A missing")
	}
	wait, ok := q.EstimatedWait()
	got := outcome{
		rows:  rt.TableRows(cA.BuildsFor),
		obs:   q.Observations(),
		wait:  wait,
		ok:    ok,
		clock: rt.Now(),
	}
	if card := int64(w.Dataset["A"].Len()); got.obs != card {
		t.Errorf("estimator saw %d arrivals of wrapper A's %d tuples", got.obs, card)
	}
	want := outcome{rows: 12211, obs: 15000, wait: 5558 * time.Nanosecond, ok: true, clock: 91744700 * time.Nanosecond}
	if got != want {
		t.Errorf("overflow path diverged from the recorded run:\nrecorded: %+v\ngot:      %+v", want, got)
	}
}

// refProcessBatch is ProcessBatch for a temp-fed fragment driven one tuple
// at a time, with every probe step's table looked up, every key probed and
// every output sunk on its own: the per-tuple reference the chunked probe
// path must agree with.
func refProcessBatch(f *Fragment, max int) (int, bool) {
	if f.done {
		return 0, false
	}
	if !refRetry(f) {
		return 0, true
	}
	r := f.In.(tempSource)
	width := inputSchemaAt(f.Chain, f.FromStep).Width()
	n := 0
	for n < max {
		b := relation.NewBatch(width)
		k := r.Pop(f.rt.Now(), b, max-n)
		if k == 0 {
			break
		}
		for i := 0; i < k; i++ {
			t := b.Row(i, make(relation.Tuple, width))
			f.processed++
			n++
			if !refSink(f, refApplyTuple(f, t)) {
				r.UnpopN(k - i - 1)
				return n, true
			}
		}
	}
	f.ProcessBatch(0) // finishes the fragment once its input is exhausted
	return n, false
}

// refSinkTuple delivers one output the per-tuple way. Into a build: one
// reservation, one hash-table insert and one move charge. Into a temp: a
// move charge and an append. Into the output: the row is counted and, for
// a Sink, scattered by hand into the full-width row at Dec.LiveAt.
func refSinkTuple(f *Fragment, out relation.Tuple) bool {
	switch f.Term {
	case TermTemp:
		f.rt.Med.Costs.ChargeMove()
		f.Temp.Append(out)
		f.rt.matTuples++
		return true
	case TermOutput:
		if row := f.rt.emitOutput(); row != nil {
			for j, p := range f.rt.Dec.LiveAt {
				row[p] = out[j]
			}
			f.rt.stream(row)
		}
		return true
	}
	ts := f.rt.table(f.Chain.BuildsFor)
	if !f.rt.Med.Mem.Reserve(ts.holder, int64(f.rt.Med.Cfg.Params.TupleSize)) {
		return false
	}
	ts.ht.Insert(out)
	ts.rows++
	f.rt.Med.Costs.ChargeMove()
	return true
}

// refSink sinks outputs tuple by tuple, stranding copies of the rest at an
// overflow.
func refSink(f *Fragment, outs []relation.Tuple) bool {
	for i, out := range outs {
		if !refSinkTuple(f, out) {
			for _, o := range outs[i:] {
				f.pending = append(f.pending, slices.Clone(o))
			}
			return false
		}
	}
	return true
}

// refRetry retries stranded outputs tuple by tuple.
func refRetry(f *Fragment) bool {
	for len(f.pending) > 0 {
		if !refSinkTuple(f, f.pending[0]) {
			return false
		}
		f.pending = f.pending[1:]
	}
	return true
}

// refApplyTuple is the row cascade the index cascade replaced: each step
// probes key by key through Probe and Matches.Next, the probe key found by
// name in the row's schema, and each result row is built by hand as the
// probing row followed by the match. It charges what Fragment.probe does,
// in one clock addition.
func refApplyTuple(f *Fragment, t relation.Tuple) []relation.Tuple {
	costs := &f.rt.Med.Costs
	d := costs.MoveT
	if f.QueueInput {
		d += costs.ReceiveT
	}
	cur := []relation.Tuple{t}
	for i := f.FromStep; i < f.ToStep; i++ {
		j := f.Chain.Joins[i]
		ht := f.rt.table(j).ht
		key := inputSchemaAt(f.Chain, i).MustIndexOf(j.ProbeKey)
		var next []relation.Tuple
		for _, u := range cur {
			m := ht.Probe(u[key])
			for b := m.Next(); b != nil; b = m.Next() {
				next = append(next, append(slices.Clone(u), b...))
			}
		}
		d += time.Duration(len(cur))*costs.ProbeT + time.Duration(len(next))*costs.ResultT
		cur = next
		if len(cur) == 0 {
			break
		}
	}
	costs.Clock.Work(d)
	return cur
}

// TestChunkedProbeOverflowMatchesPerTupleDriver pins the chunked probe path
// against refProcessBatch where the two could part: a temp-fed single-step
// CF(p_A) whose build sink overflows partway through a 256-tuple chunk, so
// heads resolved for the whole chunk are dropped with the UnpopN'd tail and
// resolved again on resume. Input consumed, stranded outputs, reader
// position, build rows and the clock must agree at the overflow and after
// the resumed run completes.
func TestChunkedProbeOverflowMatchesPerTupleDriver(t *testing.T) {
	type state struct {
		processed       int64
		pending, unread int
		rows            int64
		clock           time.Duration
	}
	const room = 300 // build rows that fit: the overflow lands in chunk 2
	run := func(process func(*Fragment, int) (int, bool)) (atOverflow, atEnd state) {
		w := smallFig5(t)
		cfg := testConfig()
		cfg.Params.PageSize = cfg.BatchTuples * cfg.Params.TupleSize // one chunk per page
		rt, err := NewRuntime(cfg, w.Root, w.Dataset, nil)
		if err != nil {
			t.Fatal(err)
		}
		rt.Med.Mem.WriteThrough() // no resident pages: the grant holds tables only
		cE, _ := rt.Dec.ChainOf("E")
		drainFrag(t, rt, rt.NewPCFragment(cE))
		cA, _ := rt.Dec.ChainOf("A")
		mf := rt.NewSegment(cA, 0, 0, nil, false)
		drainFrag(t, rt, mf)
		cf := rt.NewSegment(cA, 0, len(cA.Joins), mf.Temp, true)
		if len(cf.steps) != 1 || cf.QueueInput || cf.Term != TermBuild {
			t.Fatalf("%s: %d steps, queue input %v, terminal %v; want a temp-fed single-step build", cf.Label, len(cf.steps), cf.QueueInput, cf.Term)
		}
		hold := rt.Med.Mem.Bind("", "test")
		if !rt.Med.Mem.Reserve(hold, rt.Med.Mem.Available()-room*int64(cfg.Params.TupleSize)) {
			t.Fatal("could not narrow the grant")
		}
		snap := func() state {
			return state{cf.Processed(), len(cf.pending), cf.Remaining(), rt.TableRows(cA.BuildsFor), rt.Now()}
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
	gotOver, gotEnd := run((*Fragment).ProcessBatch)
	wantOver, wantEnd := run(refProcessBatch)
	t.Logf("at overflow %+v, after resume %+v", gotOver, gotEnd)
	if gotOver.processed%256 == 0 || gotOver.pending == 0 {
		t.Fatalf("overflow not partway through a chunk: %+v", gotOver)
	}
	if gotOver != wantOver {
		t.Errorf("at overflow:\nchunked:   %+v\nper-tuple: %+v", gotOver, wantOver)
	}
	if gotEnd != wantEnd {
		t.Errorf("after resume:\nchunked:   %+v\nper-tuple: %+v", gotEnd, wantEnd)
	}
}

// refProcessSlots is ProcessBatch for a wrapper-fed, build-terminated
// fragment driven one queue slot at a time: each slot is popped with
// PopColsN into a one-slot mask, credited, read into a row of the scan's
// Live width and run through refApplyTuple, and each output is sunk on its
// own.
func refProcessSlots(f *Fragment, max int) (int, bool) {
	if f.done {
		return 0, false
	}
	if !refRetry(f) {
		return 0, true
	}
	qs, keep := f.rt.queueIn(f.Chain), f.Chain.LiveAt
	batch := relation.NewBatch(len(keep))
	pass := make([]bool, 1)
	row := make(relation.Tuple, len(keep))
	costs := &f.rt.Med.Costs
	n := 0
	for n < max {
		if qs.q.PopColsN(f.rt.Now(), batch, pass) == 0 {
			break
		}
		qs.Credit(f.rt.Now())
		f.processed++
		n++
		if !pass[0] {
			costs.Clock.Work(costs.MoveT + costs.ReceiveT)
			continue
		}
		if !refSink(f, refApplyTuple(f, batch.Row(0, row))) {
			return n, true
		}
	}
	f.ProcessBatch(0) // finishes the fragment once its input is exhausted
	return n, false
}

// buildPredChainPlan builds Output(HashJoin(build=HashJoin(build=B, probe=A
// with predicate A.k < less), probe=C)) over predWorkload's catalog plus a
// relation C: chain p_A is wrapper-fed, filtered at the wrapper, probes B's
// table and builds the root join's table.
func buildPredChainPlan(t *testing.T, cat *relation.Catalog, less int64) *plan.Node {
	t.Helper()
	b := plan.NewBuilder()
	col := func(r, c string) relation.ColRef { return relation.ColRef{Rel: r, Col: c} }
	scan := func(name string, pred *plan.Pred) *plan.Node {
		rel, _ := cat.Lookup(name)
		s, err := b.Scan(rel, pred)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	sa := scan("A", &plan.Pred{Col: col("A", "k"), Less: less})
	sb, sc := scan("B", nil), scan("C", nil)
	j1, err := b.HashJoin(sb, sa, col("B", "k"), col("A", "k"))
	if err != nil {
		t.Fatal(err)
	}
	j2, err := b.HashJoin(j1, sc, col("B", "k"), col("C", "k"))
	if err != nil {
		t.Fatal(err)
	}
	root, err := b.Output(j2)
	if err != nil {
		t.Fatal(err)
	}
	st := plan.NewStats()
	for _, r := range []string{"A", "B", "C"} {
		st.SetDomain(col(r, "k"), 100)
	}
	if err := st.Annotate(root); err != nil {
		t.Fatal(err)
	}
	return root
}

// unpopSpy counts the slots a fragment hands back to its input.
type unpopSpy struct {
	TupleSource
	unpopped int
}

func (s *unpopSpy) UnpopN(n int) {
	s.unpopped += n
	s.TupleSource.UnpopN(n)
}

// TestChunkedWrapperProbeOverflowMatchesPerSlotDriver is the wrapper-fed
// twin of TestChunkedProbeOverflowMatchesPerTupleDriver: p_A pops its queue
// in chunks whose pushdown mask filters about half the slots, probes B's
// table for the rest and builds the root join, whose grant runs out partway
// through a chunk. A's window is small and A delivers at about p_A's pace,
// so the window binds and the run alternates backlog and stalls: credit
// instants move arrivals, and arrivals move the clock. The chunked path
// (heads resolved once per chunk, the unprocessed tail UnpopN'd) must agree
// with refProcessSlots at the overflow and after the resumed run completes:
// input consumed, stranded outputs, queue debt, unconsumed input, estimator
// observations, build rows and the clock.
func TestChunkedWrapperProbeOverflowMatchesPerSlotDriver(t *testing.T) {
	type state struct {
		processed     int64
		pending, debt int
		remaining     int
		obs, rows     int64
		clock         time.Duration
	}
	const room = 120 // build rows that fit: the overflow lands mid-chunk
	run := func(process func(*Fragment, int) (int, bool)) (atOverflow, atEnd state, unpopped int) {
		cat, ds := predWorkload(t)
		c := cat.MustAdd("C", 100, "id", "k")
		ds["C"] = relation.NewGenerator(sim.NewRNG(4)).MustGenerate(c, relation.ColumnSpec{Col: "k", Domain: 100})
		root := buildPredChainPlan(t, cat, 50)
		cfg := testConfig()
		cfg.QueueTuples = 64
		rt, err := NewRuntime(cfg, root, ds, map[string]Delivery{"A": {MeanWait: 6 * time.Microsecond}})
		if err != nil {
			t.Fatal(err)
		}
		cB, _ := rt.Dec.ChainOf("B")
		drainFrag(t, rt, rt.NewPCFragment(cB))
		cA, _ := rt.Dec.ChainOf("A")
		f := rt.NewPCFragment(cA)
		if len(f.steps) != 1 || !f.QueueInput || f.Term != TermBuild {
			t.Fatalf("%s: %d steps, queue input %v, terminal %v; want a wrapper-fed single-step build", f.Label, len(f.steps), f.QueueInput, f.Term)
		}
		q := rt.queueIn(cA).q
		spy := &unpopSpy{TupleSource: f.In}
		f.In = spy
		hold := rt.Med.Mem.Bind("", "test")
		if !rt.Med.Mem.Reserve(hold, rt.Med.Mem.Available()-room*int64(cfg.Params.TupleSize)) {
			t.Fatal("could not narrow the grant")
		}
		snap := func() state {
			rt.Med.CM.Observe(rt.Now())
			return state{f.Processed(), len(f.pending), q.Debt(), f.Remaining(),
				q.Observations(), rt.TableRows(cA.BuildsFor), rt.Now()}
		}
		drive := func(wantOverflow bool) {
			for !f.Done() {
				// Round boundary: bulk-pop debt is settled, the CM observes.
				rt.Med.CM.Observe(rt.Now())
				n, overflow := process(f, cfg.BatchTuples)
				if overflow {
					if !wantOverflow {
						t.Fatal("fragment overflowed again after memory was freed")
					}
					return
				}
				if n == 0 && !f.Done() {
					at, ok := f.NextArrival()
					if !ok {
						t.Fatalf("%s starved", f.Label)
					}
					rt.Med.Clock.Stall(at)
				}
			}
			if wantOverflow {
				t.Fatal("fragment completed without overflowing")
			}
		}
		drive(true)
		atOverflow, unpopped = snap(), spy.unpopped
		rt.Med.Mem.Release(hold, rt.Med.Mem.Held(hold))
		drive(false)
		return atOverflow, snap(), unpopped
	}
	gotOver, gotEnd, unpopped := run((*Fragment).ProcessBatch)
	wantOver, wantEnd, _ := run(refProcessSlots)
	t.Logf("at overflow %+v (%d slots unpopped), after resume %+v", gotOver, unpopped, gotEnd)
	if unpopped == 0 || gotOver.pending == 0 {
		t.Fatalf("overflow not partway through a chunk: %+v", gotOver)
	}
	if gotEnd.processed != 1000 || gotEnd.remaining != 0 || gotOver.obs == gotEnd.obs {
		t.Errorf("run did not consume A's 1000 slots with arrivals observed after the overflow: %+v", gotEnd)
	}
	if gotOver != wantOver {
		t.Errorf("at overflow:\nchunked:  %+v\nper-slot: %+v", gotOver, wantOver)
	}
	if gotEnd != wantEnd {
		t.Errorf("after resume:\nchunked:  %+v\nper-slot: %+v", gotEnd, wantEnd)
	}
}

// eagerProducer hides a wrapper's ResumeN from its queue, so every credit
// resumes the wrapper at once, and a refill may land in the ring slot just
// credited.
type eagerProducer struct{ p comm.Producer }

func (e eagerProducer) Resume(now time.Duration) { e.p.Resume(now) }

// wrapSpy counts a queue-fed fragment's chunks that stop at the ring's end
// with arrived slots left for the next pop.
type wrapSpy struct {
	TupleSource
	q    *comm.Queue
	cuts int
}

func (s *wrapSpy) pop(c *chunk, now time.Duration, max int) {
	head := int(s.q.TotalPopped() % int64(s.q.Capacity()))
	s.TupleSource.pop(c, now, max)
	if c.n > 0 && c.n < max && head+c.n == s.q.Capacity() && s.q.Available(now) > 0 {
		s.cuts++
	}
}

// TestBorrowedChunkUnderEagerProducerMatchesPerSlotDriver: p_A reads its
// chunks in place from a 7-slot ring in 5-tuple batches, so the arrived run
// keeps crossing the ring's end, and its wrapper is resumed eagerly, so
// every credit refills the window at once — into the slot just credited
// when the window was full. A slot is credited only after its row is
// gathered into the build; crediting it before would let the refill
// overwrite the values still being read. The built table, its order, the
// input consumed and the clock must agree with refProcessSlots, which
// copies each slot out before crediting it.
func TestBorrowedChunkUnderEagerProducerMatchesPerSlotDriver(t *testing.T) {
	type state struct {
		processed int64
		rows      []relation.Tuple
		clock     time.Duration
	}
	run := func(process func(*Fragment, int) (int, bool)) (state, int) {
		cat, ds := predWorkload(t)
		c := cat.MustAdd("C", 100, "id", "k")
		ds["C"] = relation.NewGenerator(sim.NewRNG(4)).MustGenerate(c, relation.ColumnSpec{Col: "k", Domain: 100})
		root := buildPredChainPlan(t, cat, 50)
		cfg := testConfig()
		cfg.QueueTuples, cfg.BatchTuples = 7, 5
		rt, err := NewRuntime(cfg, root, ds, map[string]Delivery{"A": {MeanWait: time.Microsecond}})
		if err != nil {
			t.Fatal(err)
		}
		cB, _ := rt.Dec.ChainOf("B")
		drainFrag(t, rt, rt.NewPCFragment(cB))
		cA, _ := rt.Dec.ChainOf("A")
		f := rt.NewPCFragment(cA)
		q := rt.queueIn(cA).q
		q.SetProducer(eagerProducer{rt.Source("A")})
		spy := &wrapSpy{TupleSource: f.In, q: q}
		f.In = spy
		drainBy(t, rt, f, process)
		return state{f.Processed(), tableRows(rt, cA.BuildsFor), rt.Now()}, spy.cuts
	}
	got, cuts := run((*Fragment).ProcessBatch)
	want, _ := run(refProcessSlots)
	t.Logf("%d chunks cut at the ring's end; %d slots, %d rows built", cuts, got.processed, len(got.rows))
	if cuts == 0 || got.processed != 1000 || len(got.rows) == 0 {
		t.Fatalf("no chunk cut at the ring's end, or A not consumed into rows: %d cuts, %d slots, %d rows",
			cuts, got.processed, len(got.rows))
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("borrowed chunks built %d rows (clock %v), per-slot %d (clock %v), or the rows differ",
			len(got.rows), got.clock, len(want.rows), want.clock)
	}
}
