package plan

import (
	"strings"
	"testing"

	"dqs/internal/relation"
)

// buildFig5 constructs the paper's experiment plan shape over a small
// catalog; returned nodes: root plus the five joins bottom-up.
func buildFig5(t *testing.T) (*Node, []*Node, *relation.Catalog) {
	t.Helper()
	cat := relation.NewCatalog()
	cat.MustAdd("A", 150, "id", "k1", "k2")
	cat.MustAdd("B", 120, "id", "k1", "k2")
	cat.MustAdd("C", 180, "id", "k1")
	cat.MustAdd("D", 100, "id", "k1", "k2")
	cat.MustAdd("E", 15, "id", "k1")
	cat.MustAdd("F", 12, "id", "k1", "k2")
	b := NewBuilder()
	scan := func(name string) *Node {
		r, _ := cat.Lookup(name)
		s, err := b.Scan(r, nil)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	col := func(r, c string) relation.ColRef { return relation.ColRef{Rel: r, Col: c} }
	j1, err := b.HashJoin(scan("E"), scan("A"), col("E", "k1"), col("A", "k1"))
	if err != nil {
		t.Fatal(err)
	}
	j2, err := b.HashJoin(j1, scan("B"), col("A", "k2"), col("B", "k1"))
	if err != nil {
		t.Fatal(err)
	}
	j3, err := b.HashJoin(j2, scan("F"), col("B", "k2"), col("F", "k1"))
	if err != nil {
		t.Fatal(err)
	}
	j4, err := b.HashJoin(scan("D"), j3, col("D", "k1"), col("F", "k2"))
	if err != nil {
		t.Fatal(err)
	}
	j5, err := b.HashJoin(j4, scan("C"), col("D", "k2"), col("C", "k1"))
	if err != nil {
		t.Fatal(err)
	}
	root, err := b.Output(j5)
	if err != nil {
		t.Fatal(err)
	}
	return root, []*Node{j1, j2, j3, j4, j5}, cat
}

func TestBuilderErrors(t *testing.T) {
	cat := relation.NewCatalog()
	a := cat.MustAdd("A", 10, "id", "k")
	bRel := cat.MustAdd("B", 10, "id", "k")
	col := func(r, c string) relation.ColRef { return relation.ColRef{Rel: r, Col: c} }

	b := NewBuilder()
	if _, err := b.Scan(nil, nil); err == nil {
		t.Error("nil relation scan accepted")
	}
	if _, err := b.Scan(a, &Pred{Col: col("A", "nope"), Less: 5}); err == nil {
		t.Error("bad predicate column accepted")
	}
	sa, _ := b.Scan(a, nil)
	sb, _ := b.Scan(bRel, nil)
	if _, err := b.HashJoin(sa, sb, col("B", "k"), col("B", "k")); err == nil {
		t.Error("build key outside build schema accepted")
	}
	if _, err := b.HashJoin(sa, sb, col("A", "k"), col("A", "k")); err == nil {
		t.Error("probe key outside probe schema accepted")
	}
	j, err := b.HashJoin(sa, sb, col("A", "k"), col("B", "k"))
	if err != nil {
		t.Fatal(err)
	}
	// Children cannot be consumed twice.
	if _, err := b.HashJoin(sa, j, col("A", "k"), col("B", "k")); err == nil {
		t.Error("re-consuming a child accepted")
	}
	if _, err := b.Output(nil); err == nil {
		t.Error("nil output accepted")
	}
	out, err := b.Output(j)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Output(j); err == nil {
		t.Error("double output accepted")
	}
	if err := Validate(out); err != nil {
		t.Errorf("valid plan rejected: %v", err)
	}
}

func TestValidateRejectsNonOutputRoot(t *testing.T) {
	cat := relation.NewCatalog()
	a := cat.MustAdd("A", 10, "id")
	b := NewBuilder()
	s, _ := b.Scan(a, nil)
	if err := Validate(s); err == nil {
		t.Error("scan root accepted")
	}
	if err := Validate(nil); err == nil {
		t.Error("nil root accepted")
	}
}

func TestJoinSchemaIsProbeThenBuild(t *testing.T) {
	root, joins, _ := buildFig5(t)
	_ = root
	j1 := joins[0] // build E, probe A
	if got := j1.Schema.String(); !strings.HasPrefix(got, "(A.id") || !strings.Contains(got, "E.id") {
		t.Errorf("J1 schema = %s, want probe (A) columns first", got)
	}
	if !j1.Schema.HasRel("A") || !j1.Schema.HasRel("E") || j1.Schema.HasRel("B") {
		t.Errorf("J1 schema contents wrong: %s", j1.Schema)
	}
}

func TestDecomposeFig5Chains(t *testing.T) {
	root, joins, _ := buildFig5(t)
	dec, err := Decompose(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec.Chains) != 6 {
		t.Fatalf("got %d chains, want 6", len(dec.Chains))
	}
	chain := func(rel string) *Chain {
		c, ok := dec.ChainOf(rel)
		if !ok {
			t.Fatalf("no chain for %s", rel)
		}
		return c
	}
	// Chain structure (paper Figure 5 / DESIGN.md).
	for _, tc := range []struct {
		rel       string
		joins     int
		buildsFor *Node
	}{
		{"E", 0, joins[0]},
		{"A", 1, joins[1]},
		{"B", 1, joins[2]},
		{"D", 0, joins[3]},
		{"F", 2, joins[4]},
		{"C", 1, nil},
	} {
		c := chain(tc.rel)
		if len(c.Joins) != tc.joins {
			t.Errorf("%s probes %d joins, want %d", c.Name, len(c.Joins), tc.joins)
		}
		if c.BuildsFor != tc.buildsFor {
			t.Errorf("%s builds for %v, want %v", c.Name, c.BuildsFor, tc.buildsFor)
		}
	}
	// Direct ancestors.
	names := func(cs []*Chain) string {
		var out []string
		for _, c := range cs {
			out = append(out, c.Name)
		}
		return strings.Join(out, ",")
	}
	for _, tc := range []struct{ rel, want string }{
		{"E", ""}, {"D", ""}, {"A", "p_E"}, {"B", "p_A"}, {"F", "p_B,p_D"}, {"C", "p_F"},
	} {
		if got := names(dec.Ancestors(chain(tc.rel))); got != tc.want {
			t.Errorf("ancestors(%s) = %q, want %q", tc.rel, got, tc.want)
		}
	}
	// p_A blocks p_B, p_F and p_C (§5.2's "half the query"): the probers
	// from p_A's build up to the output.
	if got := names(proberPath(dec, chain("A"))); got != "p_B,p_F,p_C" {
		t.Errorf("prober path of p_A = %q", got)
	}
	// p_C blocks nothing (§5.2).
	if got := names(proberPath(dec, chain("C"))); got != "" {
		t.Errorf("prober path of p_C = %q", got)
	}
}

func TestTopoOrderRespectsAncestors(t *testing.T) {
	root, _, _ := buildFig5(t)
	dec, err := Decompose(root)
	if err != nil {
		t.Fatal(err)
	}
	pos := make(map[int]int)
	for i, c := range dec.TopoOrder() {
		pos[c.ID] = i
	}
	for _, c := range dec.Chains {
		for _, a := range dec.Ancestors(c) {
			if pos[a.ID] >= pos[c.ID] {
				t.Errorf("topo order puts %s after %s", a.Name, c.Name)
			}
		}
	}
}

func TestChainStringAndDecompositionString(t *testing.T) {
	root, _, _ := buildFig5(t)
	dec, _ := Decompose(root)
	c, _ := dec.ChainOf("F")
	s := c.String()
	if !strings.HasPrefix(s, "p_F: scan(F)") || !strings.Contains(s, "=> build(") {
		t.Errorf("chain string = %q", s)
	}
	all := dec.String()
	for _, name := range []string{"p_A", "p_B", "p_C", "p_D", "p_E", "p_F"} {
		if !strings.Contains(all, name) {
			t.Errorf("decomposition string missing %s", name)
		}
	}
	cOut, _ := dec.ChainOf("C")
	if !strings.Contains(cOut.String(), "=> output") {
		t.Errorf("root chain string = %q", cOut.String())
	}
}

func TestWalkPostOrderAndCollectors(t *testing.T) {
	root, joins, _ := buildFig5(t)
	var order []int
	if err := Walk(root, func(n *Node) error {
		order = append(order, n.ID)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// Post-order: every join visits after both children.
	seen := make(map[int]bool)
	for _, id := range order {
		seen[id] = true
	}
	for _, j := range joins {
		idx := indexOf(order, j.ID)
		if indexOf(order, j.Build.ID) > idx || indexOf(order, j.Probe.ID) > idx {
			t.Errorf("join J%d visited before its inputs", j.ID)
		}
	}
	if len(Scans(root)) != 6 {
		t.Errorf("Scans found %d", len(Scans(root)))
	}
	if len(Joins(root)) != 5 {
		t.Errorf("Joins found %d", len(Joins(root)))
	}
}

func indexOf(xs []int, v int) int {
	for i, x := range xs {
		if x == v {
			return i
		}
	}
	return -1
}

func TestStatsAnnotate(t *testing.T) {
	root, joins, cat := buildFig5(t)
	stats := NewStats()
	col := func(r, c string) relation.ColRef { return relation.ColRef{Rel: r, Col: c} }
	for _, e := range []struct {
		l, r   relation.ColRef
		domain int64
	}{
		{col("E", "k1"), col("A", "k1"), 30},
		{col("A", "k2"), col("B", "k1"), 100},
		{col("B", "k2"), col("F", "k1"), 50},
		{col("F", "k2"), col("D", "k1"), 120},
		{col("D", "k2"), col("C", "k1"), 90},
	} {
		stats.SetDomain(e.l, e.domain)
		stats.SetDomain(e.r, e.domain)
	}
	if err := stats.Annotate(root); err != nil {
		t.Fatal(err)
	}
	// J1 = |E|*|A|/30 = 15*150/30 = 75.
	if got := joins[0].EstRows; got != 75 {
		t.Errorf("J1 est = %v, want 75", got)
	}
	// Root output equals its child.
	if root.EstRows != joins[4].EstRows {
		t.Errorf("output est %v != root join est %v", root.EstRows, joins[4].EstRows)
	}
	_ = cat
}

func TestStatsAnnotateWithScanPredicate(t *testing.T) {
	cat := relation.NewCatalog()
	a := cat.MustAdd("A", 1000, "id", "k")
	b := NewBuilder()
	s, err := b.Scan(a, &Pred{Col: relation.ColRef{Rel: "A", Col: "k"}, Less: 25})
	if err != nil {
		t.Fatal(err)
	}
	root, err := b.Output(s)
	if err == nil {
		err = func() error {
			st := NewStats()
			st.SetDomain(relation.ColRef{Rel: "A", Col: "k"}, 100)
			return st.Annotate(root)
		}()
	}
	if err != nil {
		t.Fatal(err)
	}
	if s.EstRows != 250 { // 1000 * 25/100
		t.Errorf("predicate selectivity est = %v, want 250", s.EstRows)
	}
}

func TestStatsSkewAndValidation(t *testing.T) {
	root, joins, _ := buildFig5(t)
	stats := NewStats()
	stats.Skew = 2
	if err := stats.Annotate(root); err != nil {
		t.Fatal(err)
	}
	base := joins[0].EstRows
	stats2 := NewStats()
	if err := stats2.Annotate(root); err != nil {
		t.Fatal(err)
	}
	if joins[0].EstRows*2 != base {
		t.Errorf("skew 2 did not double the estimate: %v vs %v", base, joins[0].EstRows)
	}
	bad := NewStats()
	bad.Skew = 0
	if err := bad.Annotate(root); err == nil {
		t.Error("zero skew accepted")
	}
}

func TestRenderMarksEdges(t *testing.T) {
	root, _, _ := buildFig5(t)
	out := Render(root)
	if !strings.Contains(out, "=b= scan(E)") {
		t.Errorf("render missing blocking scan edge:\n%s", out)
	}
	if !strings.Contains(out, "-p- scan(C)") {
		t.Errorf("render missing pipelined scan edge:\n%s", out)
	}
	if !strings.Contains(out, "output") {
		t.Errorf("render missing output:\n%s", out)
	}
}
