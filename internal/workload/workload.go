// Package workload assembles complete, self-consistent experiment inputs:
// a catalog, a query, optimizer statistics, a physical plan and a generated
// dataset whose actual join selectivities match the statistics in
// expectation. The paper's Figure 5 experiment workload is built here, as
// well as randomized workloads for property-based testing.
package workload

import (
	"fmt"

	"dqs/internal/optimizer"
	"dqs/internal/plan"
	"dqs/internal/relation"
	"dqs/internal/sim"
)

// Workload is everything needed to execute one query experiment.
type Workload struct {
	Catalog *relation.Catalog
	Query   *optimizer.Query
	Stats   *plan.Stats
	// Root is the physical plan (validated and annotated).
	Root *plan.Node
	// Dataset holds the generated wrapper tables.
	Dataset relation.Dataset
}

// joinEdge describes one edge of a workload join tree during assembly.
type joinEdge struct {
	leftRel, leftCol   string
	rightRel, rightCol string
	domain             int64
}

// assemble generates tables and statistics for a set of relations and join
// edges. Each named join column is filled uniformly over its edge's domain;
// unnamed columns hold row ids.
func assemble(cat *relation.Catalog, edges []joinEdge, seed int64) (relation.Dataset, *plan.Stats, error) {
	stats := plan.NewStats()
	specs := make(map[string][]relation.ColumnSpec)
	for _, e := range edges {
		if e.domain <= 0 {
			return nil, nil, fmt.Errorf("workload: non-positive domain on edge %s.%s=%s.%s",
				e.leftRel, e.leftCol, e.rightRel, e.rightCol)
		}
		stats.SetDomain(relation.ColRef{Rel: e.leftRel, Col: e.leftCol}, e.domain)
		stats.SetDomain(relation.ColRef{Rel: e.rightRel, Col: e.rightCol}, e.domain)
		specs[e.leftRel] = append(specs[e.leftRel], relation.ColumnSpec{Col: e.leftCol, Domain: e.domain})
		specs[e.rightRel] = append(specs[e.rightRel], relation.ColumnSpec{Col: e.rightCol, Domain: e.domain})
	}
	gen := relation.NewGenerator(sim.NewRNG(seed))
	ds := make(relation.Dataset)
	for _, name := range cat.Names() {
		r, _ := cat.Lookup(name)
		t, err := gen.Generate(r, specs[name]...)
		if err != nil {
			return nil, nil, err
		}
		ds[name] = t
	}
	return ds, stats, nil
}

// queryFromEdges builds the logical query of a join tree.
func queryFromEdges(cat *relation.Catalog, edges []joinEdge) *optimizer.Query {
	q := &optimizer.Query{Relations: cat.Names()}
	for _, e := range edges {
		q.Predicates = append(q.Predicates, optimizer.JoinPred{
			Left:  relation.ColRef{Rel: e.leftRel, Col: e.leftCol},
			Right: relation.ColRef{Rel: e.rightRel, Col: e.rightCol},
		})
	}
	return q
}
