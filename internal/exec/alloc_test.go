package exec

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"dqs/internal/plan"
	"dqs/internal/relation"
	"dqs/internal/workload"
)

// TestStrandReusesPendingArena pins the overflow-retry path at zero
// steady-state allocations: once the pending arena has grown to the overflow
// batch size, re-stranding the same volume of results gathers into recycled
// storage instead of allocating per row.
func TestStrandReusesPendingArena(t *testing.T) {
	scan := &plan.Node{Live: relation.NewSchema("R", "a", "b", "c", "d")}
	f := &Fragment{rt: &Runtime{Med: &Mediator{Work: &Work{}}}, Chain: &plan.Chain{Scan: scan}}
	var cs cascade
	cs.ch.cols = make([][]int64, 4)
	for i := range 32 {
		for c, v := range []int64{int64(i), int64(-i), int64(i * 3), 7} {
			cs.ch.cols[c] = append(cs.ch.cols[c], v)
		}
	}
	cs.ch.n = 32
	strand := func() {
		f.pending = f.pending[:0] // drained by the retry loop
		for i := range cs.ch.n {
			f.strand(&cs, i, 0, 1) // a zero-step fragment's one result per slot
		}
	}
	strand() // warm arena and pending capacity
	if got := testing.AllocsPerRun(50, strand); got != 0 {
		t.Errorf("steady-state strand of %d rows allocates %v times per run, want 0", cs.ch.n, got)
	}
	// Stranded rows are deep copies: they come from the mediator's cascade
	// chunk, which the next batch of any fragment overwrites, so mutating
	// the chunk afterwards must not reach the pending buffer.
	strand()
	cs.ch.cols[0][0] = 999
	if f.pending[0][0] != 0 || f.pending[31][2] != 93 {
		t.Errorf("pending rows alias the chunk or were gathered wrong: %v, %v", f.pending[0], f.pending[31])
	}
}

// raceDetector is set when the tests run under the race detector.
var raceDetector bool

// TestColumnarSteadyStateRunAllocations pins the pool-recycle contract of
// the columnar path: once the scratch a mediator draws is warm, repeat
// columnar runs reuse its queues, hash tables and staging, and its cascade's
// chunk, headers and arena as grown, so a steady-state run allocates a small
// fraction of a cold one, and what it does allocate is per query, not per
// tuple or per page: a warm run allocates as often at full scale as on
// Fig5Small, for SEQ and for MA (whose temps grow with the data).
func TestColumnarSteadyStateRunAllocations(t *testing.T) {
	w := smallFig5(t)
	run := func(cold bool) func() {
		return func() { runPooled(t, w, cold, runSEQ) }
	}
	cold := testing.AllocsPerRun(3, run(true))
	// Each pooled run gets the scratch the run before it reclaimed.
	warm := testing.AllocsPerRun(3, run(false))
	t.Logf("a cold SEQ run allocates %v objects, a warm one %v", cold, warm)
	// A run carries irreducible per-run setup (sources, fragments, trace);
	// the pooled share — queues, tables, staging, the cascade — must be
	// gone. On go1.24 a cold run measures 231 allocations here, a warm one
	// 68 (warm ~160 before a query's inputs, tables and fragments came
	// from per-query slabs and temps from the scratch).
	if warm > 3*cold/4 {
		t.Errorf("warm columnar run allocates %v times, cold run %v: pool recycle is not engaging", warm, cold)
	}

	if raceDetector {
		t.Log("the race detector's own allocations blur exact counts: scale bound not checked")
		return
	}
	full, err := workload.Fig5(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range []struct {
		name string
		run  func(*Runtime) (Result, error)
	}{{"SEQ", runSEQ}, {"MA", runMA}} {
		warmAt := func(w *workload.Workload) float64 {
			run := func() { runPooled(t, w, false, st.run) }
			run() // the first run at a new scale regrows what the last one outgrew
			return testing.AllocsPerRun(3, run)
		}
		small, large := warmAt(w), warmAt(full)
		t.Logf("a warm %s run allocates %v objects on Fig5Small, %v on Fig5", st.name, small, large)
		if small != large {
			t.Errorf("warm %s run allocates %v times on Fig5Small but %v on Fig5: allocation grows with the data",
				st.name, small, large)
		}
	}
}

// TestAddQueryAllocatesPerQuery pins what admitting a query costs on a warm
// scratch: NewMediator, AddQuery, Cancel and Reclaim allocate per query —
// the runtime, its input, table and fragment slabs, one string of CM names,
// each wrapper's source — the same count on Fig5Small as on full Fig5, and
// nothing per fragment, temp or tuple. No admission decomposes the plan
// again, so the count is the same with Config.Plans set or nil. The bytes
// are bounded too, so that a runtime cannot grow copies of its mediator's
// state back without failing here.
func TestAddQueryAllocatesPerQuery(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector's own allocations blur exact counts")
	}
	full, err := workload.Fig5(1)
	if err != nil {
		t.Fatal(err)
	}
	small := smallFig5(t)
	for _, tc := range []struct {
		name  string
		plans *plan.DecompositionCache
	}{{"no cache", nil}, {"cache", plan.NewDecompositionCache()}} {
		cfg := testConfig()
		cfg.Plans = tc.plans
		admitAt := func(w *workload.Workload) (objects float64, bytes uint64) {
			d := uniform(w, 20*time.Microsecond)
			admit := func() {
				med, err := NewMediator(cfg)
				if err != nil {
					t.Fatal(err)
				}
				rt, err := med.AddQuery("q0", w.Root, w.Dataset, d)
				if err != nil {
					t.Fatal(err)
				}
				rt.Cancel()
				med.Reclaim()
			}
			admit() // the first admission at a new scale regrows what the last one outgrew
			objects = testing.AllocsPerRun(10, admit)
			const runs = 10
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for range runs {
				admit()
			}
			runtime.ReadMemStats(&after)
			return objects, (after.TotalAlloc - before.TotalAlloc) / runs
		}
		atSmall, bytesSmall := admitAt(small)
		atFull, bytesFull := admitAt(full)
		t.Logf("%s: a warm admission allocates %v objects (%d B) on Fig5Small, %v (%d B) on Fig5",
			tc.name, atSmall, bytesSmall, atFull, bytesFull)
		if atSmall != atFull {
			t.Errorf("%s: a warm admission allocates %v times on Fig5Small but %v on Fig5", tc.name, atSmall, atFull)
		}
		// 31 objects measured on go1.24, plus 10%: the mediator with its
		// clock, disk, ledger, temp store and CM; the runtime and its five
		// slabs; one string of CM names; six sources; and the growth of the
		// mediator's RNG and ledger-holder lists.
		if atSmall > 34 {
			t.Errorf("%s: a warm admission allocates %v times, want at most 34", tc.name, atSmall)
		}
		// 8 640 bytes measured on go1.24 at either scale, plus 4%: a
		// runtime that copied its mediator's configuration, cost table and
		// site handles again would add 640 bytes, which a 10% slack admits.
		for _, b := range []uint64{bytesSmall, bytesFull} {
			if b > 9000 {
				t.Errorf("%s: a warm admission allocates %d bytes, want at most 9000", tc.name, b)
			}
		}
	}
}

// TestFragmentSlabOverflowKeepsFragments creates twice the fragments a
// query's slabs reserve, by re-splitting every chain's head segment over and
// over as DSE's memory repair does. A slab that runs out is replaced, never
// grown, so every fragment made before stays where it was handed out, as
// built; and the last fragment of each chain, run as SEQ runs its chains,
// gives SEQ's result.
func TestFragmentSlabOverflowKeepsFragments(t *testing.T) {
	w := smallFig5(t)
	rt := newTestRuntime(t, w, testConfig(), false)
	defer rt.Med.Reclaim()
	type shape struct {
		label      string
		chain      string
		from, to   int
		term       TerminalKind
		stepTables []*tableState
	}
	shapeOf := func(f *Fragment) shape {
		s := shape{f.Label, f.Chain.Name, f.FromStep, f.ToStep, f.Term, nil}
		for _, st := range f.steps {
			s.stepTables = append(s.stepTables, st.table)
		}
		return s
	}
	reserved, _ := fragmentSlabs(rt.Dec)
	var made []*Fragment
	var shapes []shape
	last := make(map[*plan.Chain]*Fragment)
	for len(made) < 2*reserved {
		for _, c := range rt.Dec.Chains {
			for k := 0; k <= len(c.Joins); k++ {
				f := rt.NewSegment(c, 0, k, nil, k == len(c.Joins))
				made, shapes, last[c] = append(made, f), append(shapes, shapeOf(f)), f
			}
		}
	}
	if len(rt.frags) != len(made) {
		t.Fatalf("the runtime lists %d fragments, %d were made", len(rt.frags), len(made))
	}
	for i, f := range made {
		if rt.frags[i] != f {
			t.Fatalf("fragment %d (%s) moved", i, f.Label)
		}
		if got := shapeOf(f); !reflect.DeepEqual(got, shapes[i]) {
			t.Fatalf("fragment %d changed after later fragments were made:\nbuilt: %+v\nnow:   %+v", i, shapes[i], got)
		}
		if f != last[f.Chain] && !f.superseded {
			t.Errorf("fragment %d (%s) was re-split but is not superseded", i, f.Label)
		}
	}
	for _, c := range IteratorOrder(rt.Dec) {
		if err := drain(rt, last[c]); err != nil {
			t.Fatal(err)
		}
	}
	got := rt.FinishAt("SEQ", rt.Now())
	want := runPooled(t, w, false, runSEQ)
	if !got.Equal(want) {
		t.Errorf("the last fragments ran to another result:\ngot:  %+v\nwant: %+v", got, want)
	}
}
