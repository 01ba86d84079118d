package workload

import (
	"testing"

	"dqs/internal/plan"
)

func TestStarStructure(t *testing.T) {
	w, err := Star(1, SmallStarSpec())
	if err != nil {
		t.Fatal(err)
	}
	dec, err := plan.Decompose(w.Root)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec.Chains) != 5 {
		t.Fatalf("%d chains, want 5", len(dec.Chains))
	}
	factChain, ok := dec.ChainOf("FACT")
	if !ok {
		t.Fatal("no fact chain")
	}
	if factChain.BuildsFor != nil {
		t.Error("fact chain does not end at the output")
	}
	if len(factChain.Joins) != 4 {
		t.Errorf("fact chain probes %d joins, want 4", len(factChain.Joins))
	}
	// Every dimension chain is an independent leaf build.
	for _, c := range dec.Chains {
		if c == factChain {
			continue
		}
		if len(c.Joins) != 0 || c.BuildsFor == nil {
			t.Errorf("dimension chain %s is not a leaf build", c.Name)
		}
		if len(dec.Ancestors(c)) != 0 {
			t.Errorf("dimension chain %s has ancestors", c.Name)
		}
	}
	// Expected output ≈ FanoutTarget × facts.
	want := 0.5 * 10000
	if w.Root.EstRows < want*0.8 || w.Root.EstRows > want*1.2 {
		t.Errorf("estimated output %v, want ≈%v", w.Root.EstRows, want)
	}
}

func TestStarSpecValidation(t *testing.T) {
	bad := []StarSpec{
		{FactRows: 0, Dimensions: 2, DimRows: 10, FanoutTarget: 1},
		{FactRows: 10, Dimensions: 0, DimRows: 10, FanoutTarget: 1},
		{FactRows: 10, Dimensions: 9, DimRows: 10, FanoutTarget: 1},
		{FactRows: 10, Dimensions: 2, DimRows: 0, FanoutTarget: 1},
		{FactRows: 10, Dimensions: 2, DimRows: 10, FanoutTarget: 0},
	}
	for i, spec := range bad {
		if _, err := Star(1, spec); err == nil {
			t.Errorf("bad spec %d accepted", i)
		}
	}
}
