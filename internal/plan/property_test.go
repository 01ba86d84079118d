package plan

import (
	"slices"
	"testing"

	"dqs/internal/relation"
	"dqs/internal/sim"
)

// randomPlan builds a random bushy plan over n fresh relations by combining
// subtrees bottom-up, always joining on one column of each side.
func randomPlan(t *testing.T, rng *sim.RNG, n int) *Node {
	t.Helper()
	cat := relation.NewCatalog()
	b := NewBuilder()
	type sub struct {
		node *Node
		// joinable columns remaining on this subtree, as (rel, col) pairs
		cols []relation.ColRef
	}
	var pool []sub
	for i := 0; i < n; i++ {
		name := string(rune('A' + i))
		r := cat.MustAdd(name, 10+rng.Intn(90), "id", "k0", "k1", "k2")
		s, err := b.Scan(r, nil)
		if err != nil {
			t.Fatal(err)
		}
		pool = append(pool, sub{node: s, cols: []relation.ColRef{
			{Rel: name, Col: "k0"}, {Rel: name, Col: "k1"}, {Rel: name, Col: "k2"},
		}})
	}
	for len(pool) > 1 {
		i := rng.Intn(len(pool))
		x := pool[i]
		pool = append(pool[:i], pool[i+1:]...)
		j := rng.Intn(len(pool))
		y := pool[j]
		pool = append(pool[:j], pool[j+1:]...)
		bk := x.cols[rng.Intn(len(x.cols))]
		pk := y.cols[rng.Intn(len(y.cols))]
		joined, err := b.HashJoin(x.node, y.node, bk, pk)
		if err != nil {
			t.Fatal(err)
		}
		merged := sub{node: joined}
		merged.cols = append(merged.cols, x.cols...)
		merged.cols = append(merged.cols, y.cols...)
		pool = append(pool, merged)
	}
	root, err := b.Output(pool[0].node)
	if err != nil {
		t.Fatal(err)
	}
	return root
}

// TestDecomposeInvariantsOnRandomPlans checks the structural invariants of
// the pipeline-chain decomposition over many random bushy plans:
//
//  1. chains partition the scans (one chain per scan);
//  2. every join is probed by exactly one chain and built by exactly one;
//  3. exactly one chain ends at the output;
//  4. the ancestor relation is acyclic (topological order exists);
//  5. every chain's operator count sums to the plan's operator count;
//  6. every node's live layout is the one checkLive describes.
func TestDecomposeInvariantsOnRandomPlans(t *testing.T) {
	rng := sim.NewRNG(42)
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(9)
		root := randomPlan(t, rng.Fork(int64(trial)), n)
		if err := validate(root); err != nil {
			t.Fatalf("trial %d: invalid plan: %v", trial, err)
		}
		checkLive(t, root)
		dec, err := Decompose(root)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if len(dec.Chains) != n {
			t.Fatalf("trial %d: %d chains for %d scans", trial, len(dec.Chains), n)
		}
		// Joins: each probed once, built once.
		probed := make(map[int]int)
		built := make(map[int]int)
		outputs := 0
		totalOps := 0
		for _, c := range dec.Chains {
			totalOps += c.Ops()
			for _, j := range c.Joins {
				probed[j.ID]++
			}
			if c.BuildsFor != nil {
				built[c.BuildsFor.ID]++
			} else {
				outputs++
			}
		}
		joins := joins(root)
		if !slices.Equal(dec.Joins, joins) {
			t.Errorf("trial %d: decomposition lists joins %v, the walk %v", trial, dec.Joins, joins)
		}
		// The per-plan constants: labels, and where each live column sits.
		liveAtOK := func(n *Node, at []int) bool {
			if len(at) != n.Live.Width() {
				return false
			}
			for i, c := range n.Live.Cols {
				if n.Schema.Cols[at[i]] != c {
					return false
				}
			}
			return true
		}
		if !liveAtOK(root, dec.LiveAt) {
			t.Errorf("trial %d: output LiveAt %v does not place %v", trial, dec.LiveAt, root.Live.Cols)
		}
		for _, c := range dec.Chains {
			if name := "p_" + c.Scan.Rel.Name; c.Name != name || c.MF != "MF("+name+")" || c.CF != "CF("+name+")" {
				t.Errorf("trial %d: chain of %s labelled %q, %q, %q", trial, c.Scan.Rel.Name, c.Name, c.MF, c.CF)
			}
			if !liveAtOK(c.Scan, c.LiveAt) {
				t.Errorf("trial %d: %s LiveAt %v does not place %v", trial, c.Name, c.LiveAt, c.Scan.Live.Cols)
			}
		}
		for _, j := range joins {
			if probed[j.ID] != 1 {
				t.Errorf("trial %d: join J%d probed %d times", trial, j.ID, probed[j.ID])
			}
			if built[j.ID] != 1 {
				t.Errorf("trial %d: join J%d built %d times", trial, j.ID, built[j.ID])
			}
		}
		if outputs != 1 {
			t.Errorf("trial %d: %d output chains", trial, outputs)
		}
		// Operator count: scans + joins (each join belongs to the chain
		// probing it).
		if want := n + len(joins); totalOps != want {
			t.Errorf("trial %d: chains cover %d operators, plan has %d", trial, totalOps, want)
		}
		// Acyclicity: topological order covers all chains and respects
		// ancestors.
		topo := dec.TopoOrder()
		if len(topo) != len(dec.Chains) {
			t.Errorf("trial %d: topo order misses chains", trial)
		}
		pos := make(map[int]int)
		for i, c := range topo {
			pos[c.ID] = i
		}
		for _, c := range dec.Chains {
			for _, a := range dec.Ancestors(c) {
				if pos[a.ID] >= pos[c.ID] {
					t.Errorf("trial %d: ancestor %s after %s", trial, a.Name, c.Name)
				}
			}
		}
	}
}
