package core

import (
	"slices"
	"strings"
	"testing"
	"time"

	"dqs/internal/exec"
	"dqs/internal/plan"
	"dqs/internal/reftest"
	"dqs/internal/relation"
	"dqs/internal/sim"
	"dqs/internal/workload"
)

// multiSetup attaches n small Figure-5 queries (distinct data seeds) to one
// mediator and returns the mediator plus runtimes.
func multiSetup(t *testing.T, cfg exec.Config, n int, wait time.Duration) (*exec.Mediator, []*exec.Runtime, []*workload.Workload) {
	t.Helper()
	med, err := exec.NewMediator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var rts []*exec.Runtime
	var ws []*workload.Workload
	for i := 0; i < n; i++ {
		w, err := workload.Fig5Small(int64(i + 1))
		if err != nil {
			t.Fatal(err)
		}
		del := make(map[string]exec.Delivery)
		for _, name := range w.Catalog.Names() {
			del[name] = exec.Delivery{MeanWait: wait}
		}
		rt, err := med.AddQuery(string(rune('a'+i)), w.Root, w.Dataset, del)
		if err != nil {
			t.Fatal(err)
		}
		rts = append(rts, rt)
		ws = append(ws, w)
	}
	return med, rts, ws
}

func TestMultiQueryMatchesReference(t *testing.T) {
	cfg := testConfig()
	cfg.MemoryBytes = 128 << 20
	med, rts, ws := multiSetup(t, cfg, 3, 20*time.Microsecond)
	results, err := RunStrategy(med, rts, "DSE")
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("%d results", len(results))
	}
	for i, res := range results {
		want := reftest.Count(ws[i].Root, ws[i].Dataset)
		if res.OutputRows != want {
			t.Errorf("query %d produced %d rows, reference says %d", i, res.OutputRows, want)
		}
		if res.ResponseTime <= 0 {
			t.Errorf("query %d response %v", i, res.ResponseTime)
		}
	}
}

func TestMultiQueryConcurrencyBeatsSerialMakespan(t *testing.T) {
	cfg := testConfig()
	cfg.MemoryBytes = 128 << 20
	const wait = 50 * time.Microsecond

	med, rts, _ := multiSetup(t, cfg, 2, wait)
	results, err := RunStrategy(med, rts, "DSE")
	if err != nil {
		t.Fatal(err)
	}
	var makespan time.Duration
	for _, r := range results {
		if r.ResponseTime > makespan {
			makespan = r.ResponseTime
		}
	}
	// Serial execution: two fresh single-query mediators back to back.
	var serial time.Duration
	for i := 0; i < 2; i++ {
		w, err := workload.Fig5Small(int64(i + 1))
		if err != nil {
			t.Fatal(err)
		}
		del := make(map[string]exec.Delivery)
		for _, name := range w.Catalog.Names() {
			del[name] = exec.Delivery{MeanWait: wait}
		}
		rt, err := exec.NewRuntime(cfg, w.Root, w.Dataset, del)
		if err != nil {
			t.Fatal(err)
		}
		res, err := runOn(rt, "DSE")
		if err != nil {
			t.Fatal(err)
		}
		serial += res.ResponseTime
	}
	// Wrapper waits dominate this configuration, and concurrent queries
	// overlap them: the concurrent makespan must beat running the queries
	// one after the other.
	if makespan >= serial {
		t.Errorf("concurrent makespan %v not below serial total %v", makespan, serial)
	}
	t.Logf("concurrent makespan %v vs serial %v", makespan, serial)
}

func TestMultiQueryDeterminism(t *testing.T) {
	run := func() []exec.Result {
		cfg := testConfig()
		cfg.MemoryBytes = 128 << 20
		med, rts, _ := multiSetup(t, cfg, 2, 20*time.Microsecond)
		results, err := RunStrategy(med, rts, "DSE")
		if err != nil {
			t.Fatal(err)
		}
		return results
	}
	a, b := run(), run()
	for i := range a {
		if !a[i].Equal(b[i]) {
			t.Errorf("query %d results differ:\n%v\n%v", i, a[i], b[i])
		}
	}
}

func TestMultiEngineRejectsForeignRuntime(t *testing.T) {
	cfg := testConfig()
	medA, rtsA, _ := multiSetup(t, cfg, 1, 0)
	_, rtsB, _ := multiSetup(t, cfg, 1, 0)
	if _, err := NewStrategyEngine(medA, []*exec.Runtime{rtsA[0], rtsB[0]}, "DSE"); err == nil {
		t.Error("runtime from another mediator accepted")
	}
	if _, err := NewStrategyEngine(medA, nil, "DSE"); err == nil {
		t.Error("empty runtime list accepted")
	}
	// The engine refuses a second attach of the same runtime before asking
	// the policy, so the error is the same under every strategy.
	for _, name := range StrategyNames() {
		med, rts, _ := multiSetup(t, cfg, 1, 0)
		eng, err := NewStrategyEngine(med, rts, name)
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.Attach(rts[0]); err == nil || !strings.Contains(err.Error(), "already attached") {
			t.Errorf("%s: attaching an attached runtime: err = %v", name, err)
		}
	}
}

func TestMultiQuerySharedMemoryPressure(t *testing.T) {
	// Two queries whose combined footprint exceeds the grant: the engine
	// must stagger or repair, staying correct.
	cfg := testConfig()
	cfg.MemoryBytes = 1600 << 10
	med, rts, ws := multiSetup(t, cfg, 2, 10*time.Microsecond)
	results, err := RunStrategy(med, rts, "DSE")
	if err != nil {
		t.Fatalf("multi-query under memory pressure failed: %v", err)
	}
	for i, res := range results {
		want := reftest.Count(ws[i].Root, ws[i].Dataset)
		if res.OutputRows != want {
			t.Errorf("query %d produced %d rows, want %d", i, res.OutputRows, want)
		}
	}
	if got := med.Mem.Peak(); got > cfg.MemoryBytes {
		t.Errorf("peak memory %d exceeded the shared grant %d", got, cfg.MemoryBytes)
	}
}

// TestCancelQueryAtEveryRound cancels one of three queries sharing a mediator
// before a sample of the engine's scheduling rounds, the first included,
// under every registered strategy. DPHJ runs the whole batch in one round, so
// this is where its cancellation runs. The cancelled query must complete at
// the cancel instant, every other query must return the reference
// evaluator's result, and the grant must be empty at exit.
func TestCancelQueryAtEveryRound(t *testing.T) {
	cfg := testConfig()
	const wait = 20 * time.Microsecond
	for _, name := range StrategyNames() {
		med, rts, _ := multiSetup(t, cfg, 3, wait)
		eng, err := NewStrategyEngine(med, rts, name)
		if err != nil {
			t.Fatal(err)
		}
		rounds := 0
		for ok := true; ok; rounds++ {
			if ok, err = eng.Step(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		for victim := range rts {
			for k := 0; k < rounds; k += max(1, rounds/3) {
				med, rts, ws := multiSetup(t, cfg, 3, wait)
				eng, err := NewStrategyEngine(med, rts, name)
				if err != nil {
					t.Fatal(err)
				}
				for range k {
					if _, err := eng.Step(); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
				}
				if _, done := rts[victim].CompletedAt(); done {
					continue // finished before the cancel could strike
				}
				at := med.Now()
				if err := eng.CancelQuery(rts[victim]); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				results, err := eng.Run()
				if err != nil {
					t.Fatalf("%s, query %d cancelled before round %d: %v", name, victim, k, err)
				}
				for i, res := range results {
					if i == victim {
						if res.ResponseTime != at {
							t.Errorf("%s: query %d cancelled at %v completed at %v", name, i, at, res.ResponseTime)
						}
					} else if want := reftest.Count(ws[i].Root, ws[i].Dataset); res.OutputRows != want {
						t.Errorf("%s, query %d cancelled before round %d: survivor %d produced %d rows, want %d",
							name, victim, k, i, res.OutputRows, want)
					}
				}
				if held, used := med.Mem.HeldTotal(), med.Mem.Used(); held != 0 || used != 0 {
					t.Errorf("%s, query %d cancelled before round %d: %d grant bytes held, %d in use at exit",
						name, victim, k, held, used)
				}
			}
		}
	}
}

// TestCancelSkipsSupersededFragment: at a 1 MiB grant DSE degrades p_B into
// MF(p_B) + CF(p_B), then replaces the unstarted CF(p_B) by a memory-repair
// split. Cancelling the query right after abandons what the split left
// unfinished, never CF(p_B): it was no part of the execution, so it gets no
// abandon note and no degraded label.
func TestCancelSkipsSupersededFragment(t *testing.T) {
	w := smallFig5(t)
	cfg := testConfig()
	cfg.MemoryBytes = 1 << 20
	tr := &sim.Trace{}
	cfg.Trace = tr
	rt := newRT(t, w, cfg, uniform(w, 20*time.Microsecond))
	e := dseEngine(t, rt)
	split := func() bool {
		for _, ev := range tr.Events {
			if strings.HasPrefix(ev.Note, "split p_B ") {
				return true
			}
		}
		return false
	}
	for !split() {
		if ok, err := e.Step(); err != nil || !ok {
			t.Fatalf("the run ended without splitting p_B (err %v)", err)
		}
	}
	if err := e.CancelQuery(rt); err != nil {
		t.Fatal(err)
	}
	for _, ev := range tr.Events {
		if strings.HasPrefix(ev.Note, "CF(p_B) abandoned") {
			t.Errorf("the superseded fragment was abandoned: %q", ev.Note)
		}
	}
	if res := e.Finalize()[0]; slices.Contains(res.DegradedFragments, "CF(p_B)") {
		t.Errorf("degraded fragments %v name the superseded CF(p_B)", res.DegradedFragments)
	}
}

// TestQueryCompletesAtItsOwnEnd runs three queries on one mediator under
// every registered strategy, each streaming into its own sink. Every query's
// response time is its runtime's completion instant, no earlier than its
// last result tuple, and the three complete at distinct instants: a query
// ends when its own chains do, not at the engine's final clock reading.
func TestQueryCompletesAtItsOwnEnd(t *testing.T) {
	for _, name := range StrategyNames() {
		med, rts, _ := multiSetup(t, testConfig(), 3, 20*time.Microsecond)
		last := make([]time.Duration, len(rts))
		for i, rt := range rts {
			rt.SetSink(exec.SinkFunc(func(at time.Duration, _ relation.Tuple) { last[i] = at }))
		}
		results, err := RunStrategy(med, rts, name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		seen := make(map[time.Duration]int)
		for i, res := range results {
			if at, ok := rts[i].CompletedAt(); !ok || res.ResponseTime != at {
				t.Errorf("%s: query %d response %v, runtime completed at %v (%v)", name, i, res.ResponseTime, at, ok)
			}
			if res.ResponseTime < last[i] {
				t.Errorf("%s: query %d response %v precedes its last tuple at %v", name, i, res.ResponseTime, last[i])
			}
			if j, dup := seen[res.ResponseTime]; dup {
				t.Errorf("%s: queries %d and %d both complete at %v", name, j, i, res.ResponseTime)
			}
			seen[res.ResponseTime] = i
		}
		t.Logf("%s: responses %v %v %v", name, results[0].ResponseTime, results[1].ResponseTime, results[2].ResponseTime)
	}
}

// TestAliasedQueriesReadTheirOwnData: queries of one plan over different
// datasets share the plan's chain pointers, so whatever a policy keeps per
// chain it must keep per (runtime, chain) — MA's materialization temps, DSE's
// chain states, DPHJ's join networks. Under every strategy, each query's
// answer must be its own dataset's.
func TestAliasedQueriesReadTheirOwnData(t *testing.T) {
	var ws []*workload.Workload
	var want []int64
	for seed := int64(1); seed <= 3; seed++ {
		w, err := workload.Fig5Small(seed)
		if err != nil {
			t.Fatal(err)
		}
		ws = append(ws, w)
		// Every query runs the first workload's plan over its own data.
		want = append(want, reftest.Count(ws[0].Root, w.Dataset))
	}
	if want[0] == want[1] || want[1] == want[2] || want[0] == want[2] {
		t.Fatalf("reference counts %v do not tell the datasets apart", want)
	}
	for _, name := range StrategyNames() {
		cfg := testConfig()
		cfg.MemoryBytes = 128 << 20
		med, err := exec.NewMediator(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var rts []*exec.Runtime
		for i, w := range ws {
			rt, err := med.AddQuery(string(rune('a'+i)), ws[0].Root, w.Dataset, uniform(w, 20*time.Microsecond))
			if err != nil {
				t.Fatal(err)
			}
			rts = append(rts, rt)
		}
		results, err := RunStrategy(med, rts, name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i, res := range results {
			if res.OutputRows != want[i] {
				t.Errorf("%s: query %d produced %d rows, its dataset gives %d", name, i, res.OutputRows, want[i])
			}
		}
		med.Reclaim()
	}
}

// TestAliasedQueriesRepairTheirOwnChains: queries built from one workload
// object share plan nodes and, through the plan's one decomposition, chain
// pointers too — with no Config.Plans, the default — so DSE's chain states
// are keyed by runtime as well as chain. An overflow of one query's build must suspend
// that query's chain and split that query's prober, never the other's. The
// build chosen is the one whose table p_F probes at step 1, so the split
// lands below the blocked join and is visible in the prober's segments.
func TestAliasedQueriesRepairTheirOwnChains(t *testing.T) {
	w := smallFig5(t)
	med, err := exec.NewMediator(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	var rts []*exec.Runtime
	for _, label := range []string{"q0", "q1"} {
		rt, err := med.AddQuery(label, w.Root, w.Dataset, uniform(w, 20*time.Microsecond))
		if err != nil {
			t.Fatal(err)
		}
		rts = append(rts, rt)
	}
	e, err := NewStrategyEngine(med, rts, "DSE")
	if err != nil {
		t.Fatal(err)
	}
	p := e.pol.(*dsePolicy)
	p.addRuntimes(e.st)
	if rts[0].Dec != rts[1].Dec {
		t.Fatal("the queries do not share one decomposition")
	}
	prober, _ := rts[0].Dec.ChainOf("F")
	builder := rts[0].Dec.BuilderOf(prober.Joins[1])
	find := func(rt *exec.Runtime, c *plan.Chain) *chainState {
		for _, cs := range p.states {
			if cs.rt == rt && cs.chain == c {
				return cs
			}
		}
		t.Fatalf("no state for %s of %s", c, rt.Label)
		return nil
	}
	// q1 overflows first, then q0: a lookup that ignores the runtime picks
	// the same query's states both times, whichever registration it finds.
	for _, q := range []int{1, 0} {
		f := rts[q].NewPCFragment(builder)
		if f.Term != exec.TermBuild {
			t.Fatalf("%s is not a build fragment", f.Label)
		}
		p.handleOverflow(f)
		for i, rt := range rts {
			repaired := i == q || i == 1 // q1 stays repaired once q0 overflows
			if got := find(rt, builder).memSuspended; got != repaired {
				t.Errorf("after %s overflowed: %s%s suspended=%v, want %v",
					rts[q].Label, rt.Label, builder.Name, got, repaired)
			}
			want := 1
			if repaired {
				want = 2
			}
			if segs := find(rt, prober).segs; len(segs) != want || want == 2 && segs[0].toStep != 1 {
				t.Errorf("after %s overflowed: %s%s has segments %+v, want %d split at step 1",
					rts[q].Label, rt.Label, prober.Name, segs, want)
			}
		}
	}
}
