package exec

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"dqs/internal/operator"
	"dqs/internal/plan"
	"dqs/internal/workload"
)

// newTestRuntime assembles a Fig5Small runtime. With cold set the mediator
// is re-seated on a brand-new Scratch, so the run allocates everything
// itself; otherwise it draws whatever earlier runs left in scratchPool.
func newTestRuntime(t *testing.T, w *workload.Workload, cfg Config, cold bool) *Runtime {
	t.Helper()
	med, err := NewMediator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if cold {
		med.scratch = new(Scratch)
		med.Temps.SetPool(med.scratch)
	}
	rt, err := med.AddQuery("", w.Root, w.Dataset, uniform(w, 20*time.Microsecond))
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

// runPooled executes one strategy on a cold or pooled Scratch and reclaims
// the mediator afterwards.
func runPooled(t *testing.T, w *workload.Workload, cold bool, strategy func(*Runtime) (Result, error)) Result {
	t.Helper()
	rt := newTestRuntime(t, w, testConfig(), cold)
	res, err := strategy(rt)
	rt.Med.Reclaim()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestScratchReuseIsBitIdentical pins the pooling contract: running on a
// scratch warmed by previous runs (of other strategies, so every pooled kind
// has been cycled) yields exactly the Result of a run on an empty one.
func TestScratchReuseIsBitIdentical(t *testing.T) {
	w := smallFig5(t)
	strategies := map[string]func(*Runtime) (Result, error){
		"SEQ": runSEQ,
		"MA":  runMA,
	}
	// Warm the pool with every strategy so later runs draw recycled queues,
	// tables, arenas and temp storage in mixed orders.
	for _, run := range strategies {
		runPooled(t, w, false, run)
	}
	for name, run := range strategies {
		fresh := runPooled(t, w, true, run)
		pooled := runPooled(t, w, false, run)
		if !reflect.DeepEqual(fresh, pooled) {
			t.Errorf("%s: pooled run diverged:\nfresh:  %+v\npooled: %+v", name, fresh, pooled)
		}
	}
}

// TestScratchReuseSurvivesMemoryOverflow reuses a scratch after an aborted
// (memory-exceeded) run: the abandoned run's state must come back clean.
func TestScratchReuseSurvivesMemoryOverflow(t *testing.T) {
	w := smallFig5(t)
	cfg := testConfig()
	cfg.MemoryBytes = 64 << 10 // far too small: MA must overflow
	rt := newTestRuntime(t, w, cfg, false)
	if _, err := runMA(rt); err == nil {
		t.Fatal("expected memory overflow with a 64KiB grant")
	}
	rt.Med.Reclaim()
	pooled := runPooled(t, w, false, runMA)
	fresh := runPooled(t, w, true, runMA)
	if !reflect.DeepEqual(fresh, pooled) {
		t.Errorf("pooled run after overflow diverged:\nfresh:  %+v\npooled: %+v", fresh, pooled)
	}
}

// TestNextMediatorGetsLastScratch pins the slot beside the pool: the next
// mediator gets the Scratch the last one reclaimed even after collections
// that empty a sync.Pool.
func TestNextMediatorGetsLastScratch(t *testing.T) {
	med, err := NewMediator(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	s := med.scratch
	med.Reclaim()
	runtime.GC()
	runtime.GC()
	next, err := NewMediator(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer next.Reclaim()
	if next.scratch != s {
		t.Error("the next mediator did not get the Scratch the last one reclaimed")
	}
}

// TestScratchTableFitsEachJoin pins how pooled hash tables are handed out:
// each request gets the smallest table that already holds its reservation,
// whatever order the tables were pooled in, and a request nothing holds
// takes the smallest table and regrows it.
func TestScratchTableFitsEachJoin(t *testing.T) {
	s := new(Scratch)
	small, large := s.Table(0, 2, 100), s.Table(0, 2, 10000)
	for _, order := range [][2]*operator.HashTable{{small, large}, {large, small}} {
		s.PutTable(order[0])
		s.PutTable(order[1])
		if got := s.Table(1, 2, 5000); got != large {
			t.Fatal("a 5000-row request was not given the 10000-row table")
		}
		if got := s.Table(1, 2, 50); got != small {
			t.Fatal("a 50-row request was not given the 100-row table")
		}
	}
	s.PutTable(small)
	s.PutTable(large)
	if got := s.Table(0, 2, 20000); got != small || !got.Holds(2, 20000) {
		t.Fatal("a request no pooled table holds did not regrow the smallest")
	}
}

// TestMediatorReclaimTwiceIsSafe guards the double-reclaim hazard: a second
// Reclaim must not hand the same structures to the pool twice.
func TestMediatorReclaimTwiceIsSafe(t *testing.T) {
	rt := newTestRuntime(t, smallFig5(t), testConfig(), true)
	if _, err := runSEQ(rt); err != nil {
		t.Fatal(err)
	}
	s := rt.Med.scratch
	rt.Med.Reclaim()
	nq := s.queues.len()
	if nq == 0 {
		t.Fatal("reclaim pooled no queue")
	}
	rt.Med.Reclaim()
	if s.queues.len() != nq {
		t.Errorf("double reclaim grew the queue pool: %d -> %d", nq, s.queues.len())
	}
}

// len returns the number of pooled objects.
func (p *pool[T]) len() int { return len(p.idle) + len(p.stale) }

// onScratch re-seats a new mediator on s, as newTestRuntime does on a cold
// Scratch.
func onScratch(t *testing.T, cfg Config, s *Scratch) *Mediator {
	t.Helper()
	med, err := NewMediator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	med.scratch = s
	med.Temps.SetPool(s)
	return med
}

// TestScratchRetainsItsWorkingSet pins the retention rule. A 16-query fused
// batch — one mediator, shared streams, half the queries on one shared
// instance — leaves its whole working set pooled: every queue, table, temp
// arena, RNG stream, stream schedule and staging buffer it checked out, and
// no more. A single-query run after it with another window size must
// allocate its queues (no pooled ring has that capacity), so the batch's
// queues are stale and dropped, leaving exactly the run's own; every other
// kind it drew from the pool without a miss keeps the batch's count, the
// most the last mediator to allocate one checked out.
func TestScratchRetainsItsWorkingSet(t *testing.T) {
	s := new(Scratch)
	cfg := testConfig()
	cfg.SharedStreams = true
	med := onScratch(t, cfg, s)
	shared := smallFig5(t)
	var rts []*Runtime
	for i := 0; i < 16; i++ {
		w := shared
		if i%2 == 1 {
			var err error
			if w, err = workload.Fig5Small(int64(2 + i/2)); err != nil {
				t.Fatal(err)
			}
		}
		rt, err := med.AddQuery(fmt.Sprintf("q%02d", i), w.Root, w.Dataset, uniform(w, 20*time.Microsecond))
		if err != nil {
			t.Fatal(err)
		}
		rts = append(rts, rt)
	}
	var temps int
	for _, rt := range rts {
		if _, err := runMA(rt); err != nil {
			t.Fatal(err)
		}
		for _, f := range rt.frags {
			if f.Temp != nil {
				temps++
			}
		}
	}
	streams, _ := med.SharedStreamCount()
	queues, joins := 16*len(shared.Catalog.Names()), 16*len(plan.Joins(shared.Root))
	med.Reclaim()
	want := map[string][2]int{
		"queues": {s.queues.len(), queues},
		"tables": {s.tables.len(), joins},
		"temps":  {s.temps.len(), temps},
		// The mediator's own stream, one per query, per wrapper, per stream.
		"rngs": {s.rngs.len(), 1 + 16 + queues + streams},
		// One staging buffer per wrapper, one schedule per stream.
		"times": {s.times.len(), queues + streams},
	}
	for kind, n := range want {
		if n[0] != n[1] {
			t.Errorf("after the batch the Scratch pools %d %s, want %d", n[0], kind, n[1])
		}
	}
	if temps == 0 || streams == 0 {
		t.Fatalf("the batch made %d temps and %d shared streams: nothing to retain", temps, streams)
	}

	single := testConfig()
	single.QueueTuples /= 2
	med = onScratch(t, single, s)
	rt, err := med.AddQuery("", shared.Root, shared.Dataset, uniform(shared, 20*time.Microsecond))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runMA(rt); err != nil {
		t.Fatal(err)
	}
	med.Reclaim()
	want = map[string][2]int{
		"queues": {s.queues.len(), len(shared.Catalog.Names())},
		"tables": {s.tables.len(), joins},
		"temps":  {s.temps.len(), temps},
		"times":  {s.times.len(), queues + streams},
	}
	for kind, n := range want {
		if n[0] != n[1] {
			t.Errorf("after the single run the Scratch pools %d %s, want %d", n[0], kind, n[1])
		}
	}
}
