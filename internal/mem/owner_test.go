package mem

import (
	"fmt"
	"math/rand"
	"testing"
)

// Randomized owner-attribution invariant: under an arbitrary interleaving
// of Bind registrations, Reserves and Releases across many owners, the
// per-owner view must stay an exact partition of the global ledger —
// HoldingsByOwner sums to HeldTotal and matches a manually tracked
// per-owner sum at every step.
func TestOwnerAttributionInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(1123))
	for trial := 0; trial < 20; trial++ {
		g, err := NewManager(1 << 30)
		if err != nil {
			t.Fatal(err)
		}
		owners := []string{"", "q0", "q1", "q2", "q3"}
		var (
			ids     []HolderID
			ownerOf []string
			want    = make(map[string]int64)
		)
		check := func(step int) {
			t.Helper()
			byOwner := g.HoldingsByOwner()
			var sum int64
			for _, b := range byOwner {
				sum += b
			}
			if sum != g.HeldTotal() {
				t.Fatalf("trial %d step %d: owner sums %d != HeldTotal %d", trial, step, sum, g.HeldTotal())
			}
			for _, o := range owners {
				if byOwner[o] != want[o] {
					t.Fatalf("trial %d step %d: HoldingsByOwner[%q] = %d, want %d", trial, step, o, byOwner[o], want[o])
				}
			}
		}
		for step := 0; step < 400; step++ {
			switch {
			case len(ids) == 0 || rng.Intn(4) == 0: // register a holder
				owner := owners[rng.Intn(len(owners))]
				ids = append(ids, g.Bind(owner, fmt.Sprintf("h%d", len(ids))))
				ownerOf = append(ownerOf, owner)
			default: // reserve for, or release from, a random holder
				i := rng.Intn(len(ids))
				delta := int64(rng.Intn(4096) + 1)
				if held := g.Held(ids[i]); held > 0 && rng.Intn(2) == 0 {
					delta = rng.Int63n(held) + 1 // partial or full release
					g.Release(ids[i], delta)
					delta = -delta
				} else if !g.Reserve(ids[i], delta) {
					t.Fatalf("trial %d step %d: Reserve(%d) failed under a 1 GiB grant", trial, step, delta)
				}
				want[ownerOf[i]] += delta
			}
			check(step)
		}
		// Drain every holder: the ledger must return to zero per owner.
		for i, id := range ids {
			if held := g.Held(id); held > 0 {
				g.Release(id, held)
				want[ownerOf[i]] -= held
			}
		}
		check(-1)
		if g.HeldTotal() != 0 || g.Used() != 0 {
			t.Fatalf("trial %d: HeldTotal %d, Used %d after draining all holders", trial, g.HeldTotal(), g.Used())
		}
	}
}
