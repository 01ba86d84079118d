package exec

import (
	"reflect"
	"strings"
	"testing"

	"dqs/internal/plan"
	"dqs/internal/relation"
	"dqs/internal/sim"
)

// fanoutPlan builds Output(J2(build = J1(build=B, probe=A), probe=C)) over
// a dataset where B's join key has a two-value domain, so every A tuple
// probing J1 matches ~half of B — output runs far past parallelMinBatch,
// the shape that drives the partition-parallel build kernel on p_A's
// TermBuild terminal.
func fanoutPlan(t *testing.T) (*plan.Node, relation.Dataset) {
	t.Helper()
	cat := relation.NewCatalog()
	aRel := cat.MustAdd("A", 512, "id", "k")
	bRel := cat.MustAdd("B", 256, "id", "k")
	cRel := cat.MustAdd("C", 512, "id", "k")
	g := relation.NewGenerator(sim.NewRNG(5))
	ds := relation.Dataset{
		"A": g.MustGenerate(aRel, relation.ColumnSpec{Col: "k", Domain: 2}),
		"B": g.MustGenerate(bRel, relation.ColumnSpec{Col: "k", Domain: 2}),
		"C": g.MustGenerate(cRel, relation.ColumnSpec{Col: "k", Domain: 2}),
	}
	b := plan.NewBuilder()
	col := func(r, c string) relation.ColRef { return relation.ColRef{Rel: r, Col: c} }
	sa, err := b.Scan(aRel, nil)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := b.Scan(bRel, nil)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := b.Scan(cRel, nil)
	if err != nil {
		t.Fatal(err)
	}
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
	st.SetDomain(col("A", "k"), 2)
	st.SetDomain(col("B", "k"), 2)
	st.SetDomain(col("C", "k"), 2)
	if err := st.Annotate(root); err != nil {
		t.Fatal(err)
	}
	return root, ds
}

// TestParallelBuildEngagesAndMatchesSerial runs each input serially and at
// several worker counts: the run summaries and rendered traces must be
// equal, and the parallel configurations must actually have exercised the
// parallel kernels the input exists to drive — guarding against the gates
// silently keeping everything serial. The fanout plan drives partition-
// parallel builds and parallel probe batches; the scan-predicate plan
// (instantaneous wrappers, so whole windows arrive per batch) drives
// wrapper-fed parallel batches that mix passing slots with slots the
// pushed-down predicate filtered, which bill only their receive+move charge.
func TestParallelBuildEngagesAndMatchesSerial(t *testing.T) {
	fanRoot, fanDS := fanoutPlan(t)
	predCat, predDS := predWorkload(t)
	for _, in := range []struct {
		name   string
		root   *plan.Node
		ds     relation.Dataset
		builds bool // the input's build runs are long enough to go partition-parallel
	}{
		{"fanout", fanRoot, fanDS, true},
		{"scan-predicate", buildPredPlan(t, predCat, 50), predDS, false},
	} {
		run := func(workers int) (Result, string, int64, int64) {
			cfg := testConfig()
			cfg.Workers = workers
			cfg.MemoryBytes = 256 << 20
			cfg.Trace = &sim.Trace{}
			rt, err := NewRuntime(cfg, in.root, in.ds, nil)
			if err != nil {
				t.Fatal(err)
			}
			res, err := runSEQ(rt)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", in.name, workers, err)
			}
			var trace strings.Builder
			if err := cfg.Trace.Dump(&trace); err != nil {
				t.Fatal(err)
			}
			return res, trace.String(), rt.parallelBuilds, rt.parallelBatches
		}
		ref, refTrace, builds, batches := run(1)
		if builds != 0 || batches != 0 {
			t.Fatalf("%s: serial run used parallel kernels: builds=%d batches=%d", in.name, builds, batches)
		}
		for _, workers := range []int{2, 8} {
			res, trace, builds, batches := run(workers)
			if !reflect.DeepEqual(ref, res) {
				t.Errorf("%s workers=%d diverged from serial:\nserial:   %+v\nparallel: %+v", in.name, workers, ref, res)
			}
			if trace != refTrace {
				t.Errorf("%s workers=%d: trace diverged from serial", in.name, workers)
			}
			if in.builds && builds == 0 {
				t.Errorf("%s workers=%d: partition-parallel build never engaged", in.name, workers)
			}
			if batches == 0 {
				t.Errorf("%s workers=%d: parallel probe batches never engaged", in.name, workers)
			}
		}
	}
}

// TestParallelRowBatchesEngageThroughTempFedCF covers the row half of the
// parallel batch path. Under materialize-all every probe step runs in a
// complement fragment reading a temp (the step-less materialization
// fragments stay serial), so every parallel batch of the run is a popped row
// run: at Workers 8 they must engage and leave the run summary equal to the
// serial one.
func TestParallelRowBatchesEngageThroughTempFedCF(t *testing.T) {
	w := smallFig5(t)
	run := func(workers int) (Result, int64) {
		cfg := testConfig()
		cfg.Workers = workers
		rt, err := NewRuntime(cfg, w.Root, w.Dataset, nil)
		if err != nil {
			t.Fatal(err)
		}
		res, err := runMA(rt)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return res, rt.parallelBatches
	}
	ref, batches := run(1)
	if batches != 0 {
		t.Fatalf("serial run took %d parallel batches", batches)
	}
	res, batches := run(8)
	if batches == 0 {
		t.Error("workers=8: no complement fragment took the parallel row path")
	}
	if !reflect.DeepEqual(ref, res) {
		t.Errorf("workers=8 diverged from serial:\nserial:   %+v\nparallel: %+v", ref, res)
	}
}

// TestWorkerPoolRunCoversAllTasks pins the pool's task distribution: every
// task index runs exactly once regardless of worker/task ratio.
func TestWorkerPoolRunCoversAllTasks(t *testing.T) {
	for _, workers := range []int{2, 3, 8} {
		for _, tasks := range []int{0, 1, 2, 7, 64} {
			pool := newWorkerPool(workers)
			counts := make([]int64, tasks)
			pool.Run(tasks, func(i int) { counts[i]++ })
			for i, c := range counts {
				if c != 1 {
					t.Errorf("workers=%d tasks=%d: task %d ran %d times", workers, tasks, i, c)
				}
			}
		}
	}
}

// TestWorkerPoolSerialIsNil pins the serial short-circuit: width <= 1 means
// no pool at all, so call sites take the serial path with zero overhead.
func TestWorkerPoolSerialIsNil(t *testing.T) {
	if newWorkerPool(0) != nil || newWorkerPool(1) != nil {
		t.Error("width <= 1 must yield a nil pool")
	}
	if p := newWorkerPool(4); p == nil || p.Width() != 4 {
		t.Errorf("newWorkerPool(4) = %+v", p)
	}
}

// TestChunkBounds pins the chunking arithmetic: chunks tile [0, n) exactly,
// in order, and respect the minimum chunk size.
func TestChunkBounds(t *testing.T) {
	for _, n := range []int{1, 31, 64, 100, 256, 1000} {
		for _, workers := range []int{1, 2, 8, 16} {
			chunks := chunkCount(n, workers)
			if chunks < 1 || chunks > workers {
				t.Fatalf("chunkCount(%d, %d) = %d", n, workers, chunks)
			}
			if chunks > 1 && n/chunks < minChunkTuples {
				t.Errorf("chunkCount(%d, %d) = %d: chunks below %d tuples", n, workers, chunks, minChunkTuples)
			}
			prev := 0
			for c := 0; c < chunks; c++ {
				lo, hi := chunkBounds(c, chunks, n)
				if lo != prev || hi < lo {
					t.Fatalf("chunkBounds(%d, %d, %d) = [%d, %d), want lo %d", c, chunks, n, lo, hi, prev)
				}
				prev = hi
			}
			if prev != n {
				t.Fatalf("chunks of %d/%d end at %d", n, workers, prev)
			}
		}
	}
}

// TestConfigWorkersValidation pins the Workers validation and the derived
// pool shape: AutoPartitions maps 1/2/8/16 workers to 1/8/32/64 partitions.
func TestConfigWorkersValidation(t *testing.T) {
	cfg := testConfig()
	cfg.Workers = -1
	if err := cfg.Validate(); err == nil {
		t.Error("negative Workers accepted")
	}
	for _, tc := range []struct{ workers, parts int }{{0, 1}, {1, 1}, {2, 8}, {8, 32}, {16, 64}, {1000, 64}} {
		cfg.Workers = tc.workers
		if got := cfg.partitions(); got != tc.parts {
			t.Errorf("partitions() at %d workers = %d, want %d", tc.workers, got, tc.parts)
		}
	}
}

// TestWorkerPoolPhaseScope pins the helper lifecycle: inside a phase the
// helpers started by the first multi-task Run serve the later ones (the
// caller takes tasks too, so Width()-1 helpers are the most ever started),
// endPhase stops them, and a Run outside any phase stops its own before it
// returns. Every Run still covers each task exactly once.
func TestWorkerPoolPhaseScope(t *testing.T) {
	pool := newWorkerPool(4)
	run := func(tasks int) {
		t.Helper()
		counts := make([]int64, tasks)
		pool.Run(tasks, func(i int) { counts[i]++ })
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("tasks=%d: task %d ran %d times", tasks, i, c)
			}
		}
		if pool.fn != nil {
			t.Fatal("the pool kept the task closure after Run")
		}
	}
	pool.beginPhase()
	run(1)
	if pool.helpers != 0 {
		t.Fatalf("a single-task Run started %d helpers", pool.helpers)
	}
	run(2)
	if pool.helpers != 1 {
		t.Fatalf("a two-task Run has %d helpers parked, want 1 (the caller runs the other task)", pool.helpers)
	}
	for i := 0; i < 100; i++ {
		run(2 + i%7)
	}
	if pool.helpers != 3 {
		t.Fatalf("%d helpers parked mid-phase, want Width()-1 = 3", pool.helpers)
	}
	pool.endPhase()
	if pool.helpers != 0 || pool.wake != nil {
		t.Fatalf("endPhase left %d helpers", pool.helpers)
	}
	run(8)
	if pool.helpers != 0 {
		t.Fatalf("a Run outside a phase left %d helpers parked", pool.helpers)
	}
	var nilPool *workerPool
	nilPool.beginPhase()
	nilPool.endPhase()
}
