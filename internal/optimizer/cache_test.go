package optimizer

import (
	"sync"
	"testing"

	"dqs/internal/plan"
	"dqs/internal/relation"
)

func chainStats() *plan.Stats {
	stats := plan.NewStats()
	stats.SetDomain(col("R", "k"), 100)
	stats.SetDomain(col("S", "k"), 100)
	stats.SetDomain(col("S", "j"), 10)
	stats.SetDomain(col("T", "j"), 10)
	return stats
}

// TestPlanCacheSharesIdenticalQueries: the same query through the same cache
// must resolve to the same entry and the same constructed plan.
func TestPlanCacheSharesIdenticalQueries(t *testing.T) {
	c := NewPlanCache()
	cat := chainCatalog()
	first, err := c.Load(cat, chainQuery(), chainStats())
	if err != nil {
		t.Fatal(err)
	}
	second, err := c.Load(cat, chainQuery(), chainStats())
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Error("identical queries did not share the cached plan")
	}
	s := c.Stats()
	if s.Entries != 1 || s.Hits != 1 || s.Misses != 1 || s.Builds != 1 {
		t.Errorf("stats = %+v, want 1 entry, 1 hit, 1 miss, 1 build", s)
	}
	// The cached plan matches the direct optimizer output structurally.
	direct, err := Optimize(cat, chainQuery(), chainStats())
	if err != nil {
		t.Fatal(err)
	}
	if plan.Render(first) != plan.Render(direct) {
		t.Errorf("cached plan differs from Optimize output:\ncached:\n%s\ndirect:\n%s",
			plan.Render(first), plan.Render(direct))
	}
}

// TestPlanCacheSharesShapeAcrossLiterals: identical shapes with different
// filter literals must share one entry (one DP enumeration) while each
// literal binding gets its own correctly bound, re-annotated plan.
func TestPlanCacheSharesShapeAcrossLiterals(t *testing.T) {
	c := NewPlanCache()
	cat := chainCatalog()
	load := func(less int64) *plan.Node {
		q := chainQuery()
		q.Filters = map[string]plan.Pred{"R": {Col: col("R", "id"), Less: less}}
		p, err := c.Load(cat, q, chainStats())
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	p1, p2, p1again := load(100), load(700), load(100)
	s := c.Stats()
	if s.Entries != 1 {
		t.Fatalf("literal rebinding split the shape entry: %+v", s)
	}
	if s.Builds != 2 {
		t.Errorf("want one construction per literal binding, got %d", s.Builds)
	}
	if p1 == p2 {
		t.Error("different literals must not share a constructed plan")
	}
	if p1again != p1 {
		t.Error("repeated literal binding did not reuse its constructed plan")
	}
	// Each served plan carries its own literal and row estimates.
	for _, tc := range []struct {
		p    *plan.Node
		less int64
	}{{p1, 100}, {p2, 700}} {
		found := false
		for _, scan := range plan.Scans(tc.p) {
			if scan.Rel.Name != "R" {
				continue
			}
			found = true
			if scan.Pred == nil || scan.Pred.Less != tc.less {
				t.Errorf("scan of R carries pred %+v, want Less=%d", scan.Pred, tc.less)
			}
		}
		if !found {
			t.Fatal("no scan of R in constructed plan")
		}
	}
	if p1.EstRows == p2.EstRows {
		t.Errorf("literal rebinding kept stale estimates: both roots estimate %v rows", p1.EstRows)
	}
}

// TestPlanCacheSeparatesDistinctShapes: structurally distinct queries or
// statistics must never share a cache entry.
func TestPlanCacheSeparatesDistinctShapes(t *testing.T) {
	base := func() (*relation.Catalog, *Query, *plan.Stats) {
		return chainCatalog(), chainQuery(), chainStats()
	}
	cases := []struct {
		name   string
		mutate func(*relation.Catalog, *Query, *plan.Stats) (*relation.Catalog, *Query, *plan.Stats)
	}{
		{"different cardinality", func(_ *relation.Catalog, q *Query, s *plan.Stats) (*relation.Catalog, *Query, *plan.Stats) {
			cat := relation.NewCatalog()
			cat.MustAdd("R", 2000, "id", "k")
			cat.MustAdd("S", 100, "id", "k", "j")
			cat.MustAdd("T", 10, "id", "j")
			return cat, q, s
		}},
		{"different predicate column", func(cat *relation.Catalog, q *Query, s *plan.Stats) (*relation.Catalog, *Query, *plan.Stats) {
			q.Predicates[0] = JoinPred{Left: col("R", "id"), Right: col("S", "id")}
			return cat, q, s
		}},
		{"different relation order", func(cat *relation.Catalog, q *Query, s *plan.Stats) (*relation.Catalog, *Query, *plan.Stats) {
			q.Relations = []string{"T", "S", "R"}
			return cat, q, s
		}},
		{"different domain", func(cat *relation.Catalog, q *Query, s *plan.Stats) (*relation.Catalog, *Query, *plan.Stats) {
			s.SetDomain(col("S", "j"), 99)
			return cat, q, s
		}},
		{"different skew", func(cat *relation.Catalog, q *Query, s *plan.Stats) (*relation.Catalog, *Query, *plan.Stats) {
			s.Skew = 2
			return cat, q, s
		}},
		{"different filter column", func(cat *relation.Catalog, q *Query, s *plan.Stats) (*relation.Catalog, *Query, *plan.Stats) {
			q.Filters = map[string]plan.Pred{"R": {Col: col("R", "id"), Less: 100}}
			return cat, q, s
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cat, q, s := base()
			mcat, mq, ms := tc.mutate(cat, q, s)
			baseKey := shapeKey(chainCatalog(), chainQuery(), chainStats())
			if got := shapeKey(mcat, mq, ms); got == baseKey {
				t.Fatalf("shape key collision: %q", got)
			}
			c := NewPlanCache()
			if _, err := c.Load(chainCatalog(), chainQuery(), chainStats()); err != nil {
				t.Fatal(err)
			}
			if _, err := c.Load(mcat, mq, ms); err != nil {
				t.Fatal(err)
			}
			if st := c.Stats(); st.Entries != 2 || st.Hits != 0 {
				t.Errorf("distinct shapes shared an entry: %+v", st)
			}
		})
	}
}

// TestPlanCacheSingleflight: concurrent loads of one shape must solve the DP
// and construct the plan exactly once, with every caller served the same
// plan.
func TestPlanCacheSingleflight(t *testing.T) {
	c := NewPlanCache()
	const workers = 16
	plans := make([]*plan.Node, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, err := c.Load(chainCatalog(), chainQuery(), chainStats())
			if err != nil {
				t.Error(err)
				return
			}
			plans[i] = p
		}(i)
	}
	wg.Wait()
	s := c.Stats()
	if s.Entries != 1 || s.Builds != 1 {
		t.Errorf("concurrent loads built more than once: %+v", s)
	}
	if s.Hits+s.Misses != workers || s.Misses < 1 {
		t.Errorf("lookup accounting off: %+v", s)
	}
	for i := 1; i < workers; i++ {
		if plans[i] != plans[0] {
			t.Fatalf("worker %d got a different plan", i)
		}
	}
}

// TestPlanCachePropagatesErrors: invalid queries fail through the cache with
// the same error Optimize reports, and the failure is memoized per shape.
func TestPlanCachePropagatesErrors(t *testing.T) {
	c := NewPlanCache()
	q := chainQuery()
	q.Relations[0] = "X"
	if _, err := c.Load(chainCatalog(), q, chainStats()); err == nil {
		t.Fatal("unknown relation accepted")
	}
	if _, err := c.Load(chainCatalog(), q, chainStats()); err == nil {
		t.Fatal("memoized failure lost its error")
	}
}
