package exec

import (
	"math"
	"strings"
	"testing"
	"time"

	"dqs/internal/plan"
	"dqs/internal/relation"
	"dqs/internal/sim"
	"dqs/internal/workload"
)

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.Seed = 1
	return cfg
}

func smallFig5(t *testing.T) *workload.Workload {
	t.Helper()
	w, err := workload.Fig5Small(1)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func uniform(w *workload.Workload, wait time.Duration) map[string]Delivery {
	out := make(map[string]Delivery)
	for _, name := range w.Catalog.Names() {
		out[name] = Delivery{MeanWait: wait}
	}
	return out
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"memory", func(c *Config) { c.MemoryBytes = 0 }},
		{"queue", func(c *Config) { c.QueueTuples = 0 }},
		{"batch", func(c *Config) { c.BatchTuples = 0 }},
		{"bmt", func(c *Config) { c.BMT = -1 }},
		{"bmt NaN", func(c *Config) { c.BMT = math.NaN() }},
		{"bmt +Inf", func(c *Config) { c.BMT = math.Inf(1) }},
		{"bmt -Inf", func(c *Config) { c.BMT = math.Inf(-1) }},
		{"wait estimate", func(c *Config) { c.InitialWaitEstimate = -1 }},
		{"prefetch", func(c *Config) { c.PrefetchPages = 0 }},
		{"params", func(c *Config) { c.Params.CPUMips = 0 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tc.mutate(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Errorf("bad %s accepted", tc.name)
			}
		})
	}
}

// TestConfigWorkersValidation pins the residue bench/ still compiles against:
// AutoPartitions maps 1/2/8/16 workers to 1/8/32/64 partitions.
func TestConfigWorkersValidation(t *testing.T) {
	for _, tc := range []struct{ workers, parts int }{{0, 1}, {1, 1}, {2, 8}, {8, 32}, {16, 64}, {1000, 64}} {
		if got := AutoPartitions(tc.workers); got != tc.parts {
			t.Errorf("AutoPartitions(%d) = %d, want %d", tc.workers, got, tc.parts)
		}
	}
}

func TestNewRuntimeErrors(t *testing.T) {
	w := smallFig5(t)
	cfg := testConfig()

	t.Run("invalid config", func(t *testing.T) {
		bad := cfg
		bad.BatchTuples = 0
		if _, err := NewRuntime(bad, w.Root, w.Dataset, nil); err == nil {
			t.Error("invalid config accepted")
		}
	})
	t.Run("missing relation", func(t *testing.T) {
		trimmed := make(relation.Dataset)
		for k, v := range w.Dataset {
			trimmed[k] = v
		}
		delete(trimmed, "A")
		if _, err := NewRuntime(cfg, w.Root, trimmed, nil); err == nil {
			t.Error("missing relation accepted")
		}
	})
	t.Run("cardinality mismatch", func(t *testing.T) {
		mangled := make(relation.Dataset)
		for k, v := range w.Dataset {
			mangled[k] = v
		}
		orig := mangled["A"]
		mangled["A"] = &relation.Table{Rel: orig.Rel, Rows: orig.Rows[:10]}
		if _, err := NewRuntime(cfg, w.Root, mangled, nil); err == nil {
			t.Error("cardinality mismatch accepted")
		}
	})
}

func TestIteratorOrderFig5(t *testing.T) {
	w := smallFig5(t)
	rt, err := NewRuntime(testConfig(), w.Root, w.Dataset, nil)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, c := range IteratorOrder(rt.Dec) {
		names = append(names, c.Name)
	}
	want := "p_D p_E p_A p_B p_F p_C"
	if got := strings.Join(names, " "); got != want {
		t.Errorf("iterator order = %q, want %q", got, want)
	}
}

// The strategy-level behaviour tests (reference-result equality,
// determinism, LWB bounds, memory-failure modes) live in package core next
// to the scheduling policies; the tests here cover the execution machinery
// itself.

// predWorkload builds a tiny two-relation catalog and dataset with a join
// column over domain 100, for predicate-pushdown tests.
func predWorkload(t *testing.T) (*relation.Catalog, relation.Dataset) {
	t.Helper()
	cat := relation.NewCatalog()
	a := cat.MustAdd("A", 1000, "id", "k")
	b := cat.MustAdd("B", 100, "id", "k")
	g := relation.NewGenerator(sim.NewRNG(3))
	ds := relation.Dataset{
		"A": g.MustGenerate(a, relation.ColumnSpec{Col: "k", Domain: 100}),
		"B": g.MustGenerate(b, relation.ColumnSpec{Col: "k", Domain: 100}),
	}
	return cat, ds
}

func TestFragmentMFAppliesScanPredicate(t *testing.T) {
	// Build a tiny workload with a pushed-down predicate and check the MF
	// only materializes passing tuples.
	cat, ds := predWorkload(t)
	root := buildPredPlan(t, cat, 50)
	cfg := testConfig()
	rt, err := NewRuntime(cfg, root, ds, nil)
	if err != nil {
		t.Fatal(err)
	}
	c, ok := rt.Dec.ChainOf("A")
	if !ok {
		t.Fatal("no chain for A")
	}
	f := rt.NewSegment(c, 0, 0, nil, false)
	for !f.Done() {
		if n, overflow := f.ProcessBatch(256); overflow {
			t.Fatal("MF overflowed")
		} else if n == 0 && !f.Done() {
			at, ok := f.NextArrival()
			if !ok {
				break
			}
			rt.Med.Clock.Stall(at)
		}
	}
	want := 0
	for _, row := range ds["A"].Rows {
		if row[1] < 50 {
			want++
		}
	}
	if f.Temp.Len() != want {
		t.Errorf("MF materialized %d tuples, want %d passing the predicate", f.Temp.Len(), want)
	}
}

// buildPredPlan builds Output(HashJoin(build=B, probe=A with predicate
// A.k < less)) over the test catalog.
func buildPredPlan(t *testing.T, cat *relation.Catalog, less int64) *plan.Node {
	t.Helper()
	b := plan.NewBuilder()
	aRel, _ := cat.Lookup("A")
	bRel, _ := cat.Lookup("B")
	col := func(r, c string) relation.ColRef { return relation.ColRef{Rel: r, Col: c} }
	sa, err := b.Scan(aRel, &plan.Pred{Col: col("A", "k"), Less: less})
	if err != nil {
		t.Fatal(err)
	}
	sb, err := b.Scan(bRel, nil)
	if err != nil {
		t.Fatal(err)
	}
	j, err := b.HashJoin(sb, sa, col("B", "k"), col("A", "k"))
	if err != nil {
		t.Fatal(err)
	}
	root, err := b.Output(j)
	if err != nil {
		t.Fatal(err)
	}
	st := plan.NewStats()
	st.SetDomain(col("A", "k"), 100)
	st.SetDomain(col("B", "k"), 100)
	if err := st.Annotate(root); err != nil {
		t.Fatal(err)
	}
	return root
}
