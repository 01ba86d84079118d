package plan

import (
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"

	"dqs/internal/sim"
)

// referenceAncestorClosure recomputes one chain's transitive ancestor closure
// from the direct Ancestors relation alone, in chain-ID order.
func referenceAncestorClosure(d *Decomposition, c *Chain) []*Chain {
	seen := map[*Chain]bool{}
	var visit func(*Chain)
	visit = func(x *Chain) {
		for _, a := range d.Ancestors(x) {
			if !seen[a] {
				seen[a] = true
				visit(a)
			}
		}
	}
	visit(c)
	out := make([]*Chain, 0, len(seen))
	for a := range seen {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// referenceDescendants inverts the reference closure: every chain that
// transitively depends on c, in chain-ID order.
func referenceDescendants(d *Decomposition, c *Chain) []*Chain {
	var out []*Chain
	for _, other := range d.Chains {
		for _, a := range referenceAncestorClosure(d, other) {
			if a == c {
				out = append(out, other)
				break
			}
		}
	}
	return out
}

// proberPath walks the chains c blocks: the prober of the table c builds,
// then the prober of the table that one builds, up to the output.
func proberPath(d *Decomposition, c *Chain) []*Chain {
	var out []*Chain
	for j := c.BuildsFor; j != nil; j = d.ProberOf(j).BuildsFor {
		out = append(out, d.ProberOf(j))
	}
	return out
}

// TestProberPathMatchesReference checks that ProberOf names the chain that
// probes each join, and that the prober path from a chain is exactly the set
// of chains it transitively blocks (a brute-force walk of the direct ancestor
// relation), on the paper's Figure-5 plan and on random bushy plans.
func TestProberPathMatchesReference(t *testing.T) {
	roots := []*Node{}
	fig5, _, _ := buildFig5(t)
	roots = append(roots, fig5)
	rng := sim.NewRNG(7)
	for i := 0; i < 25; i++ {
		roots = append(roots, randomPlan(t, rng, 2+rng.Intn(9)))
	}
	for i, root := range roots {
		dec, err := Decompose(root)
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range joins(root) {
			if p := dec.ProberOf(j); !slices.Contains(p.Joins, j) {
				t.Errorf("plan %d: ProberOf(J%d) = %s, which does not probe it", i, j.ID, p)
			}
		}
		for _, c := range dec.Chains {
			got := proberPath(dec, c)
			sort.Slice(got, func(i, j int) bool { return got[i].ID < got[j].ID })
			if want := referenceDescendants(dec, c); !reflect.DeepEqual(got, want) {
				t.Errorf("plan %d: prober path of %s = %v, want %v", i, c.Name, got, want)
			}
		}
	}
}

// TestDecompositionCache checks hit/miss accounting and result sharing.
func TestDecompositionCache(t *testing.T) {
	c := NewDecompositionCache()
	r1, _, _ := buildFig5(t)
	r2, _, _ := buildFig5(t) // same shape, distinct root → distinct entry
	d1, hit, err := c.Load(r1)
	if err != nil || hit {
		t.Fatalf("first load: hit=%v err=%v", hit, err)
	}
	d1again, hit, err := c.Load(r1)
	if err != nil || !hit {
		t.Fatalf("second load: hit=%v err=%v", hit, err)
	}
	if d1again != d1 {
		t.Error("repeated load returned a different decomposition")
	}
	d2, hit, err := c.Load(r2)
	if err != nil || hit {
		t.Fatalf("distinct root load: hit=%v err=%v", hit, err)
	}
	if d2 == d1 {
		t.Error("distinct roots shared a decomposition")
	}
	if _, hit, err := c.Load(r2); err != nil || !hit {
		t.Errorf("second load of the distinct root: hit=%v err=%v", hit, err)
	}
}

// TestDecompositionCacheNil: a nil cache — the not-configured path of
// Config.Plans — counts no hit and returns the plan's one decomposition, the
// one Output memoized.
func TestDecompositionCacheNil(t *testing.T) {
	var c *DecompositionCache
	root, _, _ := buildFig5(t)
	d1, hit, err := c.Load(root)
	if err != nil || hit || d1 == nil {
		t.Fatalf("nil-cache load: dec=%v hit=%v err=%v", d1, hit, err)
	}
	d2, hit, err := c.Load(root)
	if err != nil || hit {
		t.Fatalf("second nil-cache load: hit=%v err=%v", hit, err)
	}
	if d1 != d2 {
		t.Error("nil cache did not return the plan's own decomposition")
	}
	if _, _, err := c.Load(nil); err == nil {
		t.Error("nil root loaded")
	}
}

// TestDecompositionCacheSingleflight: concurrent loads of one root all get
// the plan's one decomposition, and exactly one of them is the miss.
func TestDecompositionCacheSingleflight(t *testing.T) {
	c := NewDecompositionCache()
	root, _, _ := buildFig5(t)
	const workers = 16
	decs := make([]*Decomposition, workers)
	hits := make([]bool, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			d, hit, err := c.Load(root)
			if err != nil {
				t.Error(err)
				return
			}
			decs[i], hits[i] = d, hit
		}(i)
	}
	wg.Wait()
	want, _ := Decompose(root)
	for i := 0; i < workers; i++ {
		if decs[i] != want {
			t.Fatalf("worker %d got a different decomposition", i)
		}
	}
	misses := 0
	for _, hit := range hits {
		if !hit {
			misses++
		}
	}
	if misses != 1 {
		t.Errorf("%d misses among %d concurrent loads of one root, want 1", misses, workers)
	}
}
