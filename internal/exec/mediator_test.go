package exec

import (
	"maps"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"dqs/internal/fault"
	"dqs/internal/plan"
	"dqs/internal/relation"
	"dqs/internal/source"
	"dqs/internal/workload"
)

func TestMediatorLabelScopesWrapperNames(t *testing.T) {
	med, err := NewMediator(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	w1 := smallFig5(t)
	w2, err := workload.Fig5Small(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := med.AddQuery("q1", w1.Root, w1.Dataset, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := med.AddQuery("q2", w2.Root, w2.Dataset, nil); err != nil {
		t.Fatal(err)
	}
	queues := med.CM.Queues()
	if len(queues) != 12 {
		t.Fatalf("CM has %d queues, want 12", len(queues))
	}
	for _, q := range queues {
		if n := q.Name(); !strings.HasPrefix(n, "q1:") && !strings.HasPrefix(n, "q2:") {
			t.Errorf("unscoped wrapper name %q", n)
		}
	}
}

// TestFinishedQueryLeavesTheCM attaches two queries to one mediator and ends
// the first, cancelled or run to its end: from then on the communication
// manager holds only the second query's queues.
func TestFinishedQueryLeavesTheCM(t *testing.T) {
	w2, err := workload.Fig5Small(2)
	if err != nil {
		t.Fatal(err)
	}
	for _, cancel := range []bool{true, false} {
		med, err := NewMediator(testConfig())
		if err != nil {
			t.Fatal(err)
		}
		w1 := smallFig5(t)
		rt1, err := med.AddQuery("q1", w1.Root, w1.Dataset, uniform(w1, 20*time.Microsecond))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := med.AddQuery("q2", w2.Root, w2.Dataset, uniform(w2, 20*time.Microsecond)); err != nil {
			t.Fatal(err)
		}
		if cancel {
			rt1.Med.Clock.Stall(time.Millisecond)
			rt1.Cancel()
		} else if _, err := runSEQ(rt1); err != nil {
			t.Fatal(err)
		}
		if _, done := rt1.CompletedAt(); !done {
			t.Fatalf("cancel=%v: q1 did not complete", cancel)
		}
		queues := med.CM.Queues()
		if len(queues) != 6 {
			t.Errorf("cancel=%v: the CM holds %d queues after q1 completed, want q2's 6", cancel, len(queues))
		}
		for _, q := range queues {
			if !strings.HasPrefix(q.Name(), "q2:") {
				t.Errorf("cancel=%v: the CM still holds %q after q1 completed", cancel, q.Name())
			}
		}
	}
}

// TestMediatorRefusesDuplicateLabel checks that AddQuery refuses a label an
// earlier query carried, live or finished, and a dataset missing a relation
// or miscounting its rows, each by name and before it touches the CM.
func TestMediatorRefusesDuplicateLabel(t *testing.T) {
	med, err := NewMediator(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	w := smallFig5(t)
	rt, err := med.AddQuery("q", w.Root, w.Dataset, nil)
	if err != nil {
		t.Fatal(err)
	}
	refused := func(label string, ds relation.Dataset, name string) {
		t.Helper()
		before := slices.Clone(med.CM.Queues())
		_, err := med.AddQuery(label, w.Root, ds, nil)
		if err == nil || !strings.Contains(err.Error(), strconv.Quote(name)) {
			t.Errorf("AddQuery(%q) = %v, want an error naming %q", label, err, name)
		}
		if got := med.CM.Queues(); !slices.Equal(got, before) {
			t.Errorf("AddQuery(%q) changed the CM's queues from %d to %d", label, len(before), len(got))
		}
	}
	refused("q", w.Dataset, "q")
	for _, name := range w.Catalog.Names() {
		ds := maps.Clone(w.Dataset)
		delete(ds, name)
		refused("r", ds, name)
		rel := *w.Dataset[name].Rel
		rel.Cardinality++
		ds[name] = &relation.Table{Rel: &rel, Rows: w.Dataset[name].Rows}
		refused("r", ds, name)
	}
	rt.Med.Clock.Stall(time.Millisecond)
	rt.Cancel()
	if _, done := rt.CompletedAt(); !done || len(med.CM.Queues()) != 0 {
		t.Fatalf("q did not leave the mediator: done=%v, %d queues", done, len(med.CM.Queues()))
	}
	refused("q", w.Dataset, "q")
	if _, err := med.AddQuery("r", w.Root, w.Dataset, nil); err != nil {
		t.Errorf("a fresh label after the refusals: %v", err)
	}
}

// TestRefusedAddQueryLeavesNoTrace has AddQuery refuse a query whose last
// wrapper's schedule is invalid — its own mean wait, its replica's inherited
// wait, its own wait on shared streams or under a plan cache — and then
// admit the same query under the same label with valid deliveries: the retry
// must run exactly as on a fresh mediator. A refusal that had already
// adopted queues, forked RNG streams, created shared streams, registered
// fault entries or counted a plan-cache load would panic on the retry or
// change its result.
func TestRefusedAddQueryLeavesNoTrace(t *testing.T) {
	w := smallFig5(t)
	good := uniform(w, 20*time.Microsecond)
	cases := []struct {
		name   string
		faults string
		shared bool
		plans  bool
		bad    Delivery
		source string // the refused wrapper, as its constructor names it
	}{
		{"mean wait", "", false, false, Delivery{MeanWait: -time.Microsecond}, "q:F"},
		{"replica wait", "A:stall@100+1ms;F:replica", false, false,
			Delivery{Phases: []source.Phase{{W: 20 * time.Microsecond}}, MeanWait: -time.Microsecond}, "q:F~replica"},
		{"shared streams", "A:stall@100+1ms", true, false, Delivery{MeanWait: -time.Microsecond}, "F"},
		{"plan cache", "", false, true, Delivery{MeanWait: -time.Microsecond}, "q:F"},
	}
	for _, tc := range cases {
		cfg := testConfig()
		cfg.SharedStreams = tc.shared
		if tc.faults != "" {
			p, err := fault.Parse(tc.faults)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Faults = p
		}
		run := func(refuse bool) (res Result) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("%s: retry after a refusal panicked: %v", tc.name, r)
				}
			}()
			cfg := cfg
			if tc.plans {
				cfg.Plans = plan.NewDecompositionCache()
			}
			med, err := NewMediator(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if refuse {
				bad := maps.Clone(good)
				bad["F"] = tc.bad
				if _, err := med.AddQuery("q", w.Root, w.Dataset, bad); err == nil || !strings.Contains(err.Error(), strconv.Quote(tc.source)) {
					t.Fatalf("%s: AddQuery = %v, want an error naming %q", tc.name, err, tc.source)
				}
			}
			rt, err := med.AddQuery("q", w.Root, w.Dataset, good)
			if err != nil {
				t.Fatalf("%s: retry: %v", tc.name, err)
			}
			if res, err = runSEQ(rt); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			return res
		}
		if fresh, retried := run(false), run(true); !reflect.DeepEqual(fresh, retried) {
			t.Errorf("%s: the retry after a refusal differs from a fresh mediator's run:\n%v, plan cache %d/%d\n%v, plan cache %d/%d",
				tc.name, retried, retried.PlanCacheHits, retried.PlanCacheMisses, fresh, fresh.PlanCacheHits, fresh.PlanCacheMisses)
		}
	}
}

func TestMediatorSharedClockAndMemory(t *testing.T) {
	med, err := NewMediator(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	w := smallFig5(t)
	rt1, err := med.AddQuery("q1", w.Root, w.Dataset, nil)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := workload.Fig5Small(2)
	if err != nil {
		t.Fatal(err)
	}
	rt2, err := med.AddQuery("q2", w2.Root, w2.Dataset, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rt1.Med != rt2.Med || rt1.Clock != med.Clock {
		t.Error("runtimes do not share the mediator")
	}
	rt1.Med.Clock.Work(time.Second)
	if rt2.Now() != time.Second {
		t.Error("clock advance not visible across runtimes")
	}
}

func TestMediatorWaitUsesScopedNames(t *testing.T) {
	med, err := NewMediator(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	w := smallFig5(t)
	del := uniform(w, 300*time.Microsecond)
	rt, err := med.AddQuery("q1", w.Root, w.Dataset, del)
	if err != nil {
		t.Fatal(err)
	}
	c, _ := rt.Dec.ChainOf("A")
	// Before any observation: fallback estimate.
	if got := rt.Wait(c); got != rt.Med.Cfg.InitialWaitEstimate {
		t.Errorf("initial Wait = %v", got)
	}
	// Let arrivals accumulate and be observed under the scoped name.
	rt.Med.Clock.Stall(100 * time.Millisecond)
	med.CM.Observe(rt.Now())
	got := rt.Wait(c)
	if got < 200*time.Microsecond || got > 400*time.Microsecond {
		t.Errorf("observed Wait = %v, want ≈300µs (scoped-name lookup)", got)
	}
}

func TestEstimationErrorsReported(t *testing.T) {
	w, err := workload.Fig5SmallSkewed(1, 2) // estimates 2x too high
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewRuntime(testConfig(), w.Root, w.Dataset, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := runSEQ(rt)
	if err != nil {
		t.Fatal(err)
	}
	// Every completed build carries an estimate and an actual count, and
	// MaxEstError is the worst of their ratios.
	builds, worst := 0, 1.0
	for _, c := range rt.Dec.Chains {
		j := c.BuildsFor
		if j == nil || !rt.TableComplete(j) {
			continue
		}
		builds++
		est, actual := j.Build.EstRows, float64(rt.TableRows(j))
		if est <= 0 || actual <= 0 {
			t.Fatalf("J%d: estimate %v, actual %v", j.ID, est, actual)
		}
		worst = max(worst, est/actual, actual/est)
	}
	if builds != 5 { // five builds (the root chain outputs)
		t.Fatalf("%d completed builds, want 5", builds)
	}
	if res.MaxEstError != worst {
		t.Errorf("MaxEstError = %v, want the worst build factor %v", res.MaxEstError, worst)
	}
	// Build-side estimates combine the skew multiplicatively along the
	// chain, so the worst factor must be at least 2.
	if res.MaxEstError < 2 {
		t.Errorf("MaxEstError = %v, want >= 2 with skew 2", res.MaxEstError)
	}
	// An accurate workload stays near 1.
	w2 := smallFig5(t)
	rt2, err := NewRuntime(testConfig(), w2.Root, w2.Dataset, nil)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := runSEQ(rt2)
	if err != nil {
		t.Fatal(err)
	}
	if res2.MaxEstError > 1.2 {
		t.Errorf("accurate workload MaxEstError = %v, want ≈1", res2.MaxEstError)
	}
}
