package workload

import (
	"fmt"

	"dqs/internal/plan"
	"dqs/internal/relation"
)

// Figure-5 workload constants: a five-way join over six relations — four
// medium (100K–200K tuples) and two small (10K–20K), delivered by distinct
// wrappers (paper §5.1.1). Join domains are chosen so that intermediate
// results stay moderate and the final output is ~50K tuples.
const (
	Fig5CardA = 150000
	Fig5CardB = 120000
	Fig5CardC = 180000
	Fig5CardD = 100000
	Fig5CardE = 15000
	Fig5CardF = 12000
)

// fig5Edges returns the join tree A–E, A–B, B–F, F–D, D–C with domains
// tuned for the target intermediate sizes (see DESIGN.md §3).
func fig5Edges() []joinEdge {
	return []joinEdge{
		{leftRel: "E", leftCol: "k1", rightRel: "A", rightCol: "k1", domain: 18750},  // |A⋈E| ≈ 120K
		{leftRel: "A", leftCol: "k2", rightRel: "B", rightCol: "k1", domain: 144000}, // ⋈B ≈ 100K
		{leftRel: "B", leftCol: "k2", rightRel: "F", rightCol: "k1", domain: 40000},  // ⋈F ≈ 30K
		{leftRel: "F", leftCol: "k2", rightRel: "D", rightCol: "k1", domain: 120000}, // ⋈D ≈ 25K
		{leftRel: "D", leftCol: "k2", rightRel: "C", rightCol: "k1", domain: 90000},  // ⋈C ≈ 50K
	}
}

// fig5Catalog declares the six wrapper relations.
func fig5Catalog() *relation.Catalog {
	cat := relation.NewCatalog()
	cat.MustAdd("A", Fig5CardA, "id", "k1", "k2")
	cat.MustAdd("B", Fig5CardB, "id", "k1", "k2")
	cat.MustAdd("C", Fig5CardC, "id", "k1")
	cat.MustAdd("D", Fig5CardD, "id", "k1", "k2")
	cat.MustAdd("E", Fig5CardE, "id", "k1")
	cat.MustAdd("F", Fig5CardF, "id", "k1", "k2")
	return cat
}

// fig5Plan hand-builds the experiment QEP. Its pipeline-chain structure
// reproduces every behavioural statement of §5.2:
//
//	p_E: scan(E)                         => build(J1)
//	p_A: scan(A) -> probe(J1)            => build(J2)   ancestors: p_E
//	p_B: scan(B) -> probe(J2)            => build(J3)   ancestors: p_A
//	p_D: scan(D)                         => build(J4)
//	p_F: scan(F) -> probe(J3) -> probe(J4) => build(J5) ancestors: p_B, p_D
//	p_C: scan(C) -> probe(J5)            => output      ancestors: p_F
//
// so p_A transitively blocks p_B and p_F (≈ half the execution), and p_C
// blocks no other chain.
func fig5Plan(cat *relation.Catalog, stats *plan.Stats) (*plan.Node, error) {
	b := plan.NewBuilder()
	rel := func(name string) *relation.Relation {
		r, ok := cat.Lookup(name)
		if !ok {
			panic(fmt.Sprintf("workload: missing relation %q", name))
		}
		return r
	}
	col := func(r, c string) relation.ColRef { return relation.ColRef{Rel: r, Col: c} }

	scan := func(name string) *plan.Node {
		s, err := b.Scan(rel(name), nil)
		if err != nil {
			panic(err)
		}
		return s
	}
	j1, err := b.HashJoin(scan("E"), scan("A"), col("E", "k1"), col("A", "k1"))
	if err != nil {
		return nil, err
	}
	j2, err := b.HashJoin(j1, scan("B"), col("A", "k2"), col("B", "k1"))
	if err != nil {
		return nil, err
	}
	j3, err := b.HashJoin(j2, scan("F"), col("B", "k2"), col("F", "k1"))
	if err != nil {
		return nil, err
	}
	j4, err := b.HashJoin(scan("D"), j3, col("D", "k1"), col("F", "k2"))
	if err != nil {
		return nil, err
	}
	j5, err := b.HashJoin(j4, scan("C"), col("D", "k2"), col("C", "k1"))
	if err != nil {
		return nil, err
	}
	root, err := b.Output(j5)
	if err != nil {
		return nil, err
	}
	if err := stats.Annotate(root); err != nil {
		return nil, err
	}
	return root, nil
}

// Fig5 assembles the full Figure-5 workload with the given data seed.
func Fig5(seed int64) (*Workload, error) {
	return Fig5Skewed(seed, 1)
}

// Fig5Skewed assembles the Figure-5 workload with the optimizer's join
// estimates systematically off by the given factor (1 = accurate), while
// the generated data keeps its true selectivities. This models the
// estimation errors the paper's introduction motivates: the scheduler's
// memory-fit and criticality decisions then work from wrong numbers.
func Fig5Skewed(seed int64, skew float64) (*Workload, error) {
	cat := fig5Catalog()
	edges := fig5Edges()
	ds, stats, err := assemble(cat, edges, seed)
	if err != nil {
		return nil, err
	}
	stats.Skew = skew
	root, err := fig5Plan(cat, stats)
	if err != nil {
		return nil, err
	}
	return &Workload{
		Catalog: cat,
		Query:   queryFromEdges(cat, edges),
		Stats:   stats,
		Root:    root,
		Dataset: ds,
	}, nil
}

// Fig5Small is a scaled-down Figure-5 workload (1/10 cardinalities, same
// shape and selectivity structure) for fast unit tests.
func Fig5Small(seed int64) (*Workload, error) {
	return Fig5SmallSkewed(seed, 1)
}

// Fig5SmallSkewed is Fig5Small with skewed optimizer estimates (see
// Fig5Skewed).
func Fig5SmallSkewed(seed int64, skew float64) (*Workload, error) {
	cat := relation.NewCatalog()
	cat.MustAdd("A", Fig5CardA/10, "id", "k1", "k2")
	cat.MustAdd("B", Fig5CardB/10, "id", "k1", "k2")
	cat.MustAdd("C", Fig5CardC/10, "id", "k1")
	cat.MustAdd("D", Fig5CardD/10, "id", "k1", "k2")
	cat.MustAdd("E", Fig5CardE/10, "id", "k1")
	cat.MustAdd("F", Fig5CardF/10, "id", "k1", "k2")
	edges := fig5Edges()
	for i := range edges {
		edges[i].domain /= 10
	}
	ds, stats, err := assemble(cat, edges, seed)
	if err != nil {
		return nil, err
	}
	stats.Skew = skew
	root, err := fig5Plan(cat, stats)
	if err != nil {
		return nil, err
	}
	return &Workload{
		Catalog: cat,
		Query:   queryFromEdges(cat, edges),
		Stats:   stats,
		Root:    root,
		Dataset: ds,
	}, nil
}
