package relation

import (
	"testing"

	"dqs/internal/sim"
)

func TestSchemaBasics(t *testing.T) {
	s := NewSchema("r", "id", "k1", "k2")
	if s.Width() != 3 {
		t.Fatalf("width = %d, want 3", s.Width())
	}
	if got := s.IndexOf(ColRef{Rel: "r", Col: "k1"}); got != 1 {
		t.Errorf("IndexOf(r.k1) = %d, want 1", got)
	}
	if got := s.IndexOf(ColRef{Rel: "x", Col: "k1"}); got != -1 {
		t.Errorf("IndexOf(x.k1) = %d, want -1", got)
	}
	if !s.HasRel("r") || s.HasRel("x") {
		t.Errorf("HasRel wrong")
	}
	if got := s.String(); got != "(r.id, r.k1, r.k2)" {
		t.Errorf("String = %q", got)
	}
}

func TestSchemaJoinPreservesOrderAndOrigin(t *testing.T) {
	a := NewSchema("a", "id", "k")
	b := NewSchema("b", "id")
	j := a.Join(b)
	if j.Width() != 3 {
		t.Fatalf("joined width = %d", j.Width())
	}
	if j.IndexOf(ColRef{Rel: "a", Col: "k"}) != 1 || j.IndexOf(ColRef{Rel: "b", Col: "id"}) != 2 {
		t.Errorf("joined schema layout wrong: %s", j)
	}
	// Joining must not mutate the inputs.
	if a.Width() != 2 || b.Width() != 1 {
		t.Errorf("inputs mutated: %s %s", a, b)
	}
}

func TestMustIndexOfPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustIndexOf on missing column did not panic")
		}
	}()
	NewSchema("r", "id").MustIndexOf(ColRef{Rel: "r", Col: "nope"})
}

func TestConcat(t *testing.T) {
	l, r := Tuple{1, 2}, Tuple{3}
	c := Concat(l, r)
	if len(c) != 3 || c[0] != 1 || c[2] != 3 {
		t.Errorf("Concat = %v", c)
	}
	// Appending to the result must not clobber the inputs.
	_ = append(c, 99)
	c2 := Concat(l, r)
	if c2[0] != 1 || c2[1] != 2 || c2[2] != 3 {
		t.Errorf("Concat reuse corrupted: %v", c2)
	}
}

func TestCatalogAddAndLookup(t *testing.T) {
	c := NewCatalog()
	r, err := c.Add("A", 100, "id", "k")
	if err != nil {
		t.Fatal(err)
	}
	if r.Cardinality != 100 || r.Schema.Width() != 2 {
		t.Errorf("relation fields wrong: %+v", r)
	}
	if _, ok := c.Lookup("A"); !ok {
		t.Error("Lookup(A) failed")
	}
	if _, ok := c.Lookup("B"); ok {
		t.Error("Lookup(B) succeeded")
	}
	c.MustAdd("B", 5, "id")
	if got := c.Names(); len(got) != 2 || got[0] != "A" || got[1] != "B" {
		t.Errorf("Names = %v", got)
	}
	if c.Len() != 2 {
		t.Errorf("Len = %d", c.Len())
	}
}

func TestCatalogAddErrors(t *testing.T) {
	c := NewCatalog()
	c.MustAdd("A", 10, "id")
	cases := []struct {
		name string
		card int
		cols []string
	}{
		{"", 10, []string{"id"}},        // empty name
		{"A", 10, []string{"id"}},       // duplicate
		{"B", 0, []string{"id"}},        // bad cardinality
		{"C", -5, []string{"id"}},       // negative cardinality
		{"D", 10, nil},                  // no columns
		{"E", 10, []string{""}},         // empty column
		{"F", 10, []string{"id", "id"}}, // duplicate column
	}
	for _, tc := range cases {
		if _, err := c.Add(tc.name, tc.card, tc.cols...); err == nil {
			t.Errorf("Add(%q, %d, %v) accepted", tc.name, tc.card, tc.cols)
		}
	}
}

func TestGeneratorFillsIDsAndDomains(t *testing.T) {
	c := NewCatalog()
	r := c.MustAdd("A", 1000, "id", "k")
	g := NewGenerator(sim.NewRNG(1))
	tab, err := g.Generate(r, ColumnSpec{Col: "k", Domain: 50})
	if err != nil {
		t.Fatal(err)
	}
	if tab.Len() != 1000 {
		t.Fatalf("generated %d rows", tab.Len())
	}
	for i, row := range tab.Rows {
		if row[0] != int64(i) {
			t.Fatalf("row %d id = %d", i, row[0])
		}
		if row[1] < 0 || row[1] >= 50 {
			t.Fatalf("row %d key %d outside domain", i, row[1])
		}
	}
}

func TestGeneratorErrors(t *testing.T) {
	c := NewCatalog()
	r := c.MustAdd("A", 10, "id")
	g := NewGenerator(sim.NewRNG(1))
	if _, err := g.Generate(r, ColumnSpec{Col: "nope", Domain: 5}); err == nil {
		t.Error("unknown column accepted")
	}
	if _, err := g.Generate(r, ColumnSpec{Col: "id", Domain: -1}); err == nil {
		t.Error("negative domain accepted")
	}
}

func TestGeneratorDeterministicPerSeed(t *testing.T) {
	c := NewCatalog()
	r := c.MustAdd("A", 100, "id", "k")
	t1 := NewGenerator(sim.NewRNG(7)).MustGenerate(r, ColumnSpec{Col: "k", Domain: 10})
	t2 := NewGenerator(sim.NewRNG(7)).MustGenerate(r, ColumnSpec{Col: "k", Domain: 10})
	for i := range t1.Rows {
		if t1.Rows[i][1] != t2.Rows[i][1] {
			t.Fatalf("same seed diverged at row %d", i)
		}
	}
}

func TestGeneratedSelectivityMatchesExpectation(t *testing.T) {
	// Generate two relations sharing a domain and check the real join size
	// is within 10% of the expectation.
	c := NewCatalog()
	a := c.MustAdd("A", 20000, "id", "k")
	b := c.MustAdd("B", 10000, "id", "k")
	g := NewGenerator(sim.NewRNG(3))
	domain := int64(5000) // |A|·|B| / 5000 = 40000 expected matches
	ta := g.MustGenerate(a, ColumnSpec{Col: "k", Domain: domain})
	tb := g.MustGenerate(b, ColumnSpec{Col: "k", Domain: domain})
	counts := make(map[int64]int)
	for _, row := range ta.Rows {
		counts[row[1]]++
	}
	var matches float64
	for _, row := range tb.Rows {
		matches += float64(counts[row[1]])
	}
	want := 20000.0 * 10000 / float64(domain)
	if matches < want*0.9 || matches > want*1.1 {
		t.Errorf("actual join size %v deviates from expected %v by more than 10%%", matches, want)
	}
}

func TestDatasetTotalRows(t *testing.T) {
	c := NewCatalog()
	a := c.MustAdd("A", 10, "id")
	b := c.MustAdd("B", 20, "id")
	g := NewGenerator(sim.NewRNG(1))
	ds := Dataset{"A": g.MustGenerate(a), "B": g.MustGenerate(b)}
	if got := ds.TotalRows(); got != 30 {
		t.Errorf("TotalRows = %d, want 30", got)
	}
}
