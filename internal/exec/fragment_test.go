package exec

import (
	"testing"
	"time"

	"dqs/internal/plan"
)

// drainFrag runs a fragment to completion on its runtime, stalling on gaps.
func drainFrag(t *testing.T, rt *Runtime, f *Fragment) {
	t.Helper()
	for !f.Done() {
		n, overflow := f.ProcessBatch(rt.Cfg.BatchTuples)
		if overflow {
			t.Fatalf("%s overflowed", f.Label)
		}
		if f.Done() {
			return
		}
		if n == 0 {
			at, ok := f.NextArrival()
			if !ok {
				t.Fatalf("%s starved with no arrivals", f.Label)
			}
			rt.Clock.Stall(at)
		}
	}
}

// runChainsUpTo executes (in dependency order) every chain needed before
// the named chain is C-schedulable.
func runChainsUpTo(t *testing.T, rt *Runtime, target string) *plan.Chain {
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
		n, overflow := f.ProcessBatch(rt.Cfg.BatchTuples)
		if overflow {
			overflowed = true
			break
		}
		if n == 0 && !f.Done() {
			at, ok := f.NextArrival()
			if !ok {
				break
			}
			rt.Clock.Stall(at)
		}
	}
	if !overflowed {
		t.Fatal("fragment did not overflow under a tight grant")
	}
	if f.Done() {
		t.Fatal("overflowed fragment claims completion")
	}
	rows := rt.TableRows(cA.BuildsFor)
	// Artificially free memory (as a completed prober would) and resume.
	rt.Mem.Release(60 << 10)
	for !f.Done() {
		_, overflow := f.ProcessBatch(rt.Cfg.BatchTuples)
		if overflow {
			t.Fatal("fragment overflowed again after memory was freed")
		}
		if f.Done() {
			break
		}
		if f.In.Available(rt.Now()) == 0 {
			if at, ok := f.NextArrival(); ok {
				rt.Clock.Stall(at)
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
	if rt.Mem.Used() == 0 {
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
		rt.CM.Observe(rt.Now())
		n, overflow := f.ProcessBatch(rt.Cfg.BatchTuples)
		if overflow {
			if overflowed {
				t.Fatal("fragment overflowed again after memory was freed")
			}
			overflowed = true
			// Free memory (as a completed prober would) and resume.
			rt.Mem.Release(60 << 10)
			continue
		}
		if f.Done() {
			break
		}
		if n == 0 {
			if f.In.Available(rt.Now()) == 0 {
				if at, ok := f.NextArrival(); ok {
					rt.Clock.Stall(at)
				} else if f.In.Exhausted() {
					f.ProcessBatch(0)
				}
			}
		}
	}
	if !overflowed {
		t.Fatal("fragment did not overflow under the tight grant")
	}
	rt.CM.Observe(rt.Now())
	q, okQ := rt.CM.Queue(rt.cmName("A"))
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
