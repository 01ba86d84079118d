package optimizer

import (
	"testing"

	"dqs/internal/plan"
	"dqs/internal/relation"
)

func col(r, c string) relation.ColRef { return relation.ColRef{Rel: r, Col: c} }

func chainCatalog() *relation.Catalog {
	cat := relation.NewCatalog()
	cat.MustAdd("R", 1000, "id", "k")
	cat.MustAdd("S", 100, "id", "k", "j")
	cat.MustAdd("T", 10, "id", "j")
	return cat
}

func chainQuery() *Query {
	return &Query{
		Relations: []string{"R", "S", "T"},
		Predicates: []JoinPred{
			{Left: col("R", "k"), Right: col("S", "k")},
			{Left: col("S", "j"), Right: col("T", "j")},
		},
	}
}

func TestQueryValidate(t *testing.T) {
	cat := chainCatalog()
	if err := chainQuery().Validate(cat); err != nil {
		t.Fatalf("valid query rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Query)
	}{
		{"no relations", func(q *Query) { q.Relations = nil }},
		{"duplicate relation", func(q *Query) { q.Relations = []string{"R", "R", "T"} }},
		{"unknown relation", func(q *Query) { q.Relations[0] = "X" }},
		{"wrong predicate count", func(q *Query) { q.Predicates = q.Predicates[:1] }},
		{"cycle", func(q *Query) {
			q.Predicates[1] = JoinPred{Left: col("R", "k"), Right: col("S", "k")}
		}},
		{"unknown predicate column", func(q *Query) {
			q.Predicates[0].Left = col("R", "zzz")
		}},
		{"predicate outside query", func(q *Query) {
			q.Relations = []string{"R", "S"}
			q.Predicates = []JoinPred{{Left: col("R", "k"), Right: col("T", "j")}}
		}},
		{"bad filter column", func(q *Query) {
			q.Filters = map[string]plan.Pred{"R": {Col: col("R", "zzz"), Less: 1}}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			q := chainQuery()
			tc.mutate(q)
			if err := q.Validate(cat); err == nil {
				t.Errorf("%s accepted", tc.name)
			}
		})
	}
}

func TestOptimizeProducesValidAnnotatedPlan(t *testing.T) {
	cat := chainCatalog()
	stats := plan.NewStats()
	stats.SetDomain(col("R", "k"), 100)
	stats.SetDomain(col("S", "k"), 100)
	stats.SetDomain(col("S", "j"), 10)
	stats.SetDomain(col("T", "j"), 10)
	root, err := Optimize(cat, chainQuery(), stats)
	if err != nil {
		t.Fatal(err)
	}
	// Builder.Output validated the plan when it decomposed it.
	if _, err := plan.Decompose(root); err != nil {
		t.Fatalf("optimizer produced invalid plan: %v", err)
	}
	if len(plan.Scans(root)) != 3 || len(joinsOf(t, root)) != 2 {
		t.Fatalf("plan shape wrong: %d scans, %d joins", len(plan.Scans(root)), len(joinsOf(t, root)))
	}
	// Final cardinality: 1000*100/100 = 1000 joined with T: *10/10 = 1000.
	if root.EstRows != 1000 {
		t.Errorf("estimated output %v, want 1000", root.EstRows)
	}
}

func TestOptimizeBuildsOnSmallerSide(t *testing.T) {
	cat := chainCatalog()
	stats := plan.NewStats()
	stats.SetDomain(col("R", "k"), 100)
	stats.SetDomain(col("S", "k"), 100)
	stats.SetDomain(col("S", "j"), 10)
	stats.SetDomain(col("T", "j"), 10)
	root, err := Optimize(cat, chainQuery(), stats)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range joinsOf(t, root) {
		if j.Build.EstRows > j.Probe.EstRows {
			t.Errorf("join J%d builds on larger side (%v > %v)", j.ID, j.Build.EstRows, j.Probe.EstRows)
		}
	}
}

func TestOptimizePushesFilters(t *testing.T) {
	cat := chainCatalog()
	q := chainQuery()
	q.Filters = map[string]plan.Pred{"R": {Col: col("R", "k"), Less: 50}}
	stats := plan.NewStats()
	stats.SetDomain(col("R", "k"), 100)
	stats.SetDomain(col("S", "k"), 100)
	root, err := Optimize(cat, q, stats)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range plan.Scans(root) {
		if s.Rel.Name == "R" {
			found = true
			if s.Pred == nil || s.Pred.Less != 50 {
				t.Errorf("filter not pushed to scan(R): %+v", s.Pred)
			}
			if s.EstRows != 500 { // 1000 * 50/100
				t.Errorf("filtered scan est = %v, want 500", s.EstRows)
			}
		}
	}
	if !found {
		t.Fatal("scan(R) not found")
	}
}

func TestOptimizeMinimizesIntermediateSize(t *testing.T) {
	// Star query where joining through the tiny dimension first is
	// clearly best: the optimizer must not start with the huge cross
	// pair.
	cat := relation.NewCatalog()
	cat.MustAdd("Fact", 10000, "id", "d1", "d2")
	cat.MustAdd("Dim1", 10, "id", "d1")
	cat.MustAdd("Dim2", 10, "id", "d2")
	q := &Query{
		Relations: []string{"Fact", "Dim1", "Dim2"},
		Predicates: []JoinPred{
			{Left: col("Fact", "d1"), Right: col("Dim1", "d1")},
			{Left: col("Fact", "d2"), Right: col("Dim2", "d2")},
		},
	}
	stats := plan.NewStats()
	stats.SetDomain(col("Fact", "d1"), 100)
	stats.SetDomain(col("Dim1", "d1"), 100)
	stats.SetDomain(col("Fact", "d2"), 100)
	stats.SetDomain(col("Dim2", "d2"), 100)
	root, err := Optimize(cat, q, stats)
	if err != nil {
		t.Fatal(err)
	}
	// Selectivity 1/100 with 10-row dimensions: each join shrinks the fact
	// side by 10x. Total C_out should be 1000 + 100 (join results).
	if root.EstRows != 100 {
		t.Errorf("final est = %v, want 100", root.EstRows)
	}
	joins := joinsOf(t, root)
	// The first join (bottom-most) must involve a dimension, not a cross
	// of dimensions (which is disconnected and illegal anyway); and its
	// result must be 1000.
	if joins[0].EstRows != 1000 {
		t.Errorf("first join est = %v, want 1000", joins[0].EstRows)
	}
}

func TestOptimizeRejectsOversizedQueries(t *testing.T) {
	cat := relation.NewCatalog()
	q := &Query{}
	for i := 0; i < maxDPRelations+1; i++ {
		name := string(rune('a'+i/26)) + string(rune('a'+i%26))
		cat.MustAdd(name, 10, "id", "k")
		q.Relations = append(q.Relations, name)
		if i > 0 {
			q.Predicates = append(q.Predicates, JoinPred{
				Left:  col(q.Relations[i-1], "k"),
				Right: col(name, "k"),
			})
		}
	}
	// A chain through the shared column k is a valid tree; validate first
	// so the Optimize failure below can only be the size check.
	if err := q.Validate(cat); err != nil {
		t.Fatalf("setup query invalid: %v", err)
	}
	if _, err := Optimize(cat, q, plan.NewStats()); err == nil {
		t.Error("oversized query accepted")
	}
}

func TestOptimizeDeterministic(t *testing.T) {
	cat := chainCatalog()
	stats := plan.NewStats()
	a, err := Optimize(cat, chainQuery(), stats)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Optimize(cat, chainQuery(), stats)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Render(a) != plan.Render(b) {
		t.Errorf("same inputs produced different plans:\n%s\nvs\n%s", plan.Render(a), plan.Render(b))
	}
}

// joinsOf returns the plan's hash joins in post-order, as its decomposition
// lists them.
func joinsOf(t *testing.T, root *plan.Node) []*plan.Node {
	t.Helper()
	dec, err := plan.Decompose(root)
	if err != nil {
		t.Fatal(err)
	}
	return dec.Joins
}
