package workload

import (
	"math"
	"testing"

	"dqs/internal/plan"
	"dqs/internal/sim"
)

func TestFig5Cardinalities(t *testing.T) {
	w, err := Fig5(1)
	if err != nil {
		t.Fatal(err)
	}
	// Paper §5.1.1: four medium relations (100K–200K) and two small
	// (10K–20K).
	medium := []string{"A", "B", "C", "D"}
	small := []string{"E", "F"}
	for _, name := range medium {
		r, _ := w.Catalog.Lookup(name)
		if r.Cardinality < 100000 || r.Cardinality > 200000 {
			t.Errorf("%s cardinality %d outside the medium band", name, r.Cardinality)
		}
	}
	for _, name := range small {
		r, _ := w.Catalog.Lookup(name)
		if r.Cardinality < 10000 || r.Cardinality > 20000 {
			t.Errorf("%s cardinality %d outside the small band", name, r.Cardinality)
		}
	}
	if got := w.Dataset.TotalRows(); got != Fig5CardA+Fig5CardB+Fig5CardC+Fig5CardD+Fig5CardE+Fig5CardF {
		t.Errorf("dataset rows = %d", got)
	}
}

func TestFig5PlanStructureMatchesPaperBehaviour(t *testing.T) {
	w, err := Fig5Small(1)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := plan.Decompose(w.Root)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec.Chains) != 6 || len(dec.Joins) != 5 {
		t.Fatalf("plan shape: %d chains, %d joins", len(dec.Chains), len(dec.Joins))
	}
	chain := func(name string) *plan.Chain {
		c, ok := dec.ChainOf(name)
		if !ok {
			t.Fatalf("no chain %s", name)
		}
		return c
	}
	// §5.2: p_A transitively blocks p_B and p_F — about half the execution.
	// The chains a chain blocks are the probers from its build up to the
	// output.
	blocked := map[string]bool{}
	for j := chain("A").BuildsFor; j != nil; j = dec.ProberOf(j).BuildsFor {
		blocked[dec.ProberOf(j).Scan.Rel.Name] = true
	}
	if !blocked["B"] || !blocked["F"] {
		t.Errorf("p_A does not block p_B and p_F: %v", blocked)
	}
	// §5.2: p_C blocks no other PC: it ends at the output.
	if chain("C").BuildsFor != nil {
		t.Error("p_C does not end at the output")
	}
}

func TestFig5EstimatesMatchGeneratedData(t *testing.T) {
	w, err := Fig5(1)
	if err != nil {
		t.Fatal(err)
	}
	// Check each join's optimizer estimate against an exact computation on
	// the generated data, bottom-up.
	type partial struct {
		rows float64
	}
	// Exact join sizes via reference counting on key histograms would be
	// O(n^2) naively; instead verify the *final* output estimate through a
	// real evaluation in the exec tests, and here check the base ones.
	dec, err := plan.Decompose(w.Root)
	if err != nil {
		t.Fatal(err)
	}
	joins := dec.Joins
	j1 := joins[0]
	counts := make(map[int64]int)
	eIdx := 1 // E.k1
	for _, row := range w.Dataset["E"].Rows {
		counts[row[eIdx]]++
	}
	var matches float64
	aIdx := 1 // A.k1
	for _, row := range w.Dataset["A"].Rows {
		matches += float64(counts[row[aIdx]])
	}
	if math.Abs(matches-j1.EstRows)/j1.EstRows > 0.05 {
		t.Errorf("J1 actual %v vs estimate %v deviates >5%%", matches, j1.EstRows)
	}
	_ = partial{}
}

func TestFig5SmallScalesEstimates(t *testing.T) {
	big, err := Fig5(1)
	if err != nil {
		t.Fatal(err)
	}
	small, err := Fig5Small(1)
	if err != nil {
		t.Fatal(err)
	}
	ratio := big.Root.EstRows / small.Root.EstRows
	if ratio < 9 || ratio > 11 {
		t.Errorf("small workload output est scales by %v, want ~10", ratio)
	}
}

func TestFig5QueryValidates(t *testing.T) {
	w, err := Fig5Small(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Query.Validate(w.Catalog); err != nil {
		t.Errorf("figure-5 query invalid: %v", err)
	}
}

func TestRandomWorkloadsAreWellFormed(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		w, err := Random(sim.NewRNG(seed), DefaultRandomSpec())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if _, err := plan.Decompose(w.Root); err != nil {
			t.Errorf("seed %d: decompose: %v", seed, err)
		}
		for _, name := range w.Catalog.Names() {
			r, _ := w.Catalog.Lookup(name)
			tab, ok := w.Dataset[name]
			if !ok || tab.Len() != r.Cardinality {
				t.Errorf("seed %d: dataset for %s inconsistent", seed, name)
			}
		}
		if err := w.Query.Validate(w.Catalog); err != nil {
			t.Errorf("seed %d: query invalid: %v", seed, err)
		}
	}
}

func TestRandomSpecValidation(t *testing.T) {
	rng := sim.NewRNG(1)
	bad := []RandomSpec{
		{Relations: 1, MinCard: 10, MaxCard: 20, FanoutCap: 1},
		{Relations: 3, MinCard: 0, MaxCard: 20, FanoutCap: 1},
		{Relations: 3, MinCard: 30, MaxCard: 20, FanoutCap: 1},
		{Relations: 3, MinCard: 10, MaxCard: 20, FanoutCap: 0},
	}
	for i, spec := range bad {
		if _, err := Random(rng, spec); err == nil {
			t.Errorf("bad spec %d accepted", i)
		}
	}
}
