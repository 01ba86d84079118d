package mem

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"dqs/internal/relation"
	"dqs/internal/sim"
)

func newGovernedStore(t *testing.T, grant int64) (*TempStore, *Manager, *sim.Clock, sim.Params) {
	t.Helper()
	p := sim.DefaultParams()
	clock := sim.NewClock()
	disk := sim.NewDisk(p, clock)
	store := NewTempStore(p, disk, clock)
	m, err := NewManager(grant)
	if err != nil {
		t.Fatal(err)
	}
	store.SetGovernor(m, true)
	return store, m, clock, p
}

func TestLedgerHoldingsAccounting(t *testing.T) {
	m, _ := NewManager(1000)
	a, b, c := m.Bind("Q1", "Q1:J1"), m.Bind("Q1", "Q1:J2"), m.Bind("Q2", "Q2:J1")
	for _, r := range []struct {
		h HolderID
		n int64
	}{{a, 100}, {b, 300}, {c, 50}, {a, 25}} {
		if !m.Reserve(r.h, r.n) {
			t.Fatalf("Reserve(%d, %d) failed with %d available", r.h, r.n, m.Available())
		}
	}
	if m.Held(a) != 125 || m.Held(b) != 300 || m.Held(c) != 50 {
		t.Errorf("held = %d/%d/%d", m.Held(a), m.Held(b), m.Held(c))
	}
	if m.HeldTotal() != 475 || m.Used() != 475 {
		t.Errorf("HeldTotal = %d, Used = %d", m.HeldTotal(), m.Used())
	}
	m.Release(c, 50)
	if byOwner := m.HoldingsByOwner(); len(byOwner) != 2 || byOwner["Q1"] != 425 || byOwner["Q2"] != 0 {
		t.Errorf("HoldingsByOwner = %v", byOwner)
	}
	if m.Reserve(c, 600) || m.Held(c) != 0 || m.Used() != 425 {
		t.Errorf("over-grant Reserve took bytes: held %d, used %d", m.Held(c), m.Used())
	}
	defer func() {
		if recover() == nil {
			t.Error("release beyond the holding did not panic")
		}
	}()
	m.Release(a, 126)
}

// TestLedgerInvariantsRandomized drives the ledger through randomized
// bind/reserve/release/reserve-page/free-up/consume sequences and checks its
// invariant after every step: the used bytes are exactly the sum of the
// holdings plus the resident-page bytes — nothing leaks, nothing is
// double-counted.
func TestLedgerInvariantsRandomized(t *testing.T) {
	store, g, _, p := newGovernedStore(t, 16*int64(p0(t)))
	pb := int64(p.TuplesPerPage()) * int64(p.TupleSize)
	rng := rand.New(rand.NewSource(7))
	schema := relation.NewSchema("x", "id")

	var holders []HolderID
	held := make(map[HolderID]int64)
	var temps []*Temp
	next := 0

	check := func(step int) {
		t.Helper()
		var sum int64
		for _, h := range holders {
			sum += g.Held(h)
		}
		if sum != g.HeldTotal() {
			t.Fatalf("step %d: HeldTotal %d != sum of holdings %d", step, g.HeldTotal(), sum)
		}
		var res int64
		for _, tmp := range temps {
			res += int64(tmp.ResidentPages()) * pb
		}
		if res != g.ResidentBytes() {
			t.Fatalf("step %d: ResidentBytes %d != per-temp resident sum %d", step, g.ResidentBytes(), res)
		}
		if used := g.Used(); used != g.HeldTotal()+g.ResidentBytes() {
			t.Fatalf("step %d: used %d != holdings %d + resident %d",
				step, used, g.HeldTotal(), g.ResidentBytes())
		}
	}

	for step := 0; step < 400; step++ {
		switch rng.Intn(5) {
		case 0: // bind a holder and reserve for it (spilling if need be)
			h := g.Bind("", fmt.Sprintf("H%d", len(holders)))
			holders = append(holders, h)
			n := pb / int64(1+rng.Intn(4))
			if g.Reserve(h, n) {
				held[h] += n
			}
		case 1: // release part of a holding
			if len(holders) > 0 {
				h := holders[rng.Intn(len(holders))]
				if held[h] > 0 {
					n := 1 + rng.Int63n(held[h])
					g.Release(h, n)
					held[h] -= n
				}
			}
		case 2: // write a temp (a few pages, resident when the grant allows)
			tmp := store.CreateSized(fmt.Sprintf("t%d", next), schema, 0)
			next++
			rows := p.TuplesPerPage() * (1 + rng.Intn(3))
			for i := 0; i < rows; i++ {
				tmp.Append(relation.Tuple{int64(i)})
			}
			tmp.Close()
			temps = append(temps, tmp)
		case 3: // spill under synthetic pressure
			g.FreeUp(pb * int64(1+rng.Intn(3)))
		case 4: // consume a random prefix of a random temp
			if len(temps) > 0 {
				tmp := temps[rng.Intn(len(temps))]
				r := tmp.NewReader(4)
				for i := 0; i < rng.Intn(tmp.Len()+1); i++ {
					pop(r, 1<<62)
				}
			}
		}
		check(step)
	}
	// Reclaim returns every remaining resident page.
	store.Reclaim()
	if g.ResidentBytes() != 0 {
		t.Errorf("ResidentBytes after Reclaim = %d", g.ResidentBytes())
	}
	if used := g.Used(); used != g.HeldTotal() {
		t.Errorf("used %d != holdings %d after Reclaim", used, g.HeldTotal())
	}
}

// p0 returns one page's grant charge for the default parameters.
func p0(t *testing.T) int {
	t.Helper()
	p := sim.DefaultParams()
	return p.TuplesPerPage() * p.TupleSize
}

func TestChunkedTempKeepsPagesResident(t *testing.T) {
	store, g, clock, p := newGovernedStore(t, 64*int64(p0(t)))
	tmp := store.CreateSized("t", relation.NewSchema("x", "id"), 0)
	rows := p.TuplesPerPage() * 3
	for i := 0; i < rows; i++ {
		tmp.Append(relation.Tuple{int64(i)})
	}
	tmp.Close()
	if got := tmp.ResidentPages(); got != 3 {
		t.Fatalf("ResidentPages = %d, want 3", got)
	}
	if g.ResidentBytes() != 3*int64(p0(t)) {
		t.Errorf("ResidentBytes = %d", g.ResidentBytes())
	}
	// Resident pages never hit the disk, so the temp is fully readable the
	// instant it was produced — no write-then-read transfer pair.
	r := tmp.NewReader(4)
	if got := r.Available(clock.Now()); got != rows {
		t.Errorf("Available now = %d, want %d", got, rows)
	}
	// Draining the reader releases the consumed pages' grant.
	for i := 0; i < rows; i++ {
		got := pop(r, clock.Now())
		if got[0] != int64(i) {
			t.Fatalf("tuple %d = %v", i, got)
		}
	}
	if g.ResidentBytes() != 0 {
		t.Errorf("ResidentBytes after drain = %d", g.ResidentBytes())
	}
	if w := store.disk.Stats().Writes; w != 0 {
		t.Errorf("%d page writes, want 0 (consumed, not spilled)", w)
	}
}

func TestFreeUpSpillsLargestTempOldestPageFirst(t *testing.T) {
	pb := int64(p0(t))
	// Grant sized so the quarter-of-total residency cap (10 pages) admits
	// both temps' pages.
	store, g, _, p := newGovernedStore(t, 40*pb)
	schema := relation.NewSchema("x", "id")
	small := store.CreateSized("small", schema, 0)
	large := store.CreateSized("large", schema, 0)
	fill := func(tmp *Temp, pages int) {
		for i := 0; i < p.TuplesPerPage()*pages; i++ {
			tmp.Append(relation.Tuple{int64(i)})
		}
		tmp.Close()
	}
	fill(small, 2)
	fill(large, 5)
	// Exhaust the rest of the grant so FreeUp must actually spill.
	g.Reserve(g.Bind("", "filler"), g.Available())
	if freed := g.FreeUp(2 * pb); freed != 2*pb {
		t.Fatalf("FreeUp freed %d, want %d", freed, 2*pb)
	}
	// Both evictions come from the larger temp, oldest pages first.
	if got := large.ResidentPages(); got != 3 {
		t.Errorf("large ResidentPages = %d, want 3", got)
	}
	if got := small.ResidentPages(); got != 2 {
		t.Errorf("small ResidentPages = %d, want 2 (untouched)", got)
	}
	if w := store.disk.Stats().Writes; w != 2 {
		t.Errorf("%d page writes, want 2 spills", w)
	}
	// The spilled prefix reads back intact (the I/O cache may still serve
	// it; contents are what matters here).
	r := large.NewReader(2)
	for i := 0; i < large.Len(); i++ {
		if got := pop(r, 1<<62); got[0] != int64(i) {
			t.Fatalf("tuple %d = %v after spill", i, got)
		}
	}
}

// TestReserveSpillsBeforeOverflow pins the spill-before-overflow rule: a
// reservation that does not fit spills resident pages, oldest first, and
// retries; one that still does not fit reserves nothing.
func TestReserveSpillsBeforeOverflow(t *testing.T) {
	pb := int64(p0(t))
	store, g, _, p := newGovernedStore(t, 40*pb)
	tmp := store.CreateSized("t", relation.NewSchema("x", "id"), 0)
	for i := 0; i < p.TuplesPerPage()*5; i++ {
		tmp.Append(relation.Tuple{int64(i)})
	}
	tmp.Close()
	g.Reserve(g.Bind("", "filler"), g.Available())
	build := g.Bind("", "build")
	if !g.Reserve(build, pb+1) {
		t.Fatal("Reserve failed with resident pages to spill")
	}
	if g.Held(build) != pb+1 || tmp.ResidentPages() != 3 {
		t.Errorf("held %d, %d pages resident; want %d held after spilling 2 of 5", g.Held(build), tmp.ResidentPages(), pb+1)
	}
	if g.Reserve(build, 10*pb) || g.Held(build) != pb+1 {
		t.Errorf("Reserve beyond everything spillable succeeded: held %d", g.Held(build))
	}
	if used := g.Used(); used != g.HeldTotal()+g.ResidentBytes() {
		t.Errorf("used %d != holdings %d + resident %d", used, g.HeldTotal(), g.ResidentBytes())
	}
}

// TestChunkedSpillReloadRoundTrip is the spill/reload property test: several
// temps written under a grant that cannot hold them all, with random
// eviction pressure applied between writes, must read back exactly the
// tuples a brute-force reference recorded — resident fast path, spilled
// write+read path, and consumed-release path all mixed.
func TestChunkedSpillReloadRoundTrip(t *testing.T) {
	pb := int64(p0(t))
	store, g, _, p := newGovernedStore(t, 24*pb)
	rng := rand.New(rand.NewSource(42))
	schema := relation.NewSchema("x", "id")

	// spill forces at least one eviction regardless of how much grant is
	// free, modelling a build burst that claims everything.
	var spilled int64
	spill := func(pages int) {
		spilled += g.FreeUp(g.Available() + int64(pages)*pb)
	}

	const ntemps = 6
	var (
		temps []*Temp
		want  [][]int64
	)
	val := int64(0)
	for i := 0; i < ntemps; i++ {
		tmp := store.CreateSized(fmt.Sprintf("t%d", i), schema, 0)
		rows := rng.Intn(p.TuplesPerPage()*4 + 1)
		ref := make([]int64, 0, rows)
		for j := 0; j < rows; j++ {
			tmp.Append(relation.Tuple{val})
			ref = append(ref, val)
			val++
			if rng.Intn(64) == 0 {
				spill(1 + rng.Intn(3))
			}
		}
		tmp.Close()
		temps = append(temps, tmp)
		want = append(want, ref)
	}
	// Interleave the read-back with more eviction pressure.
	var now time.Duration = 1 << 62
	for i, tmp := range temps {
		r := tmp.NewReader(1 + rng.Intn(3))
		for j := 0; j < len(want[i]); j++ {
			if rng.Intn(32) == 0 {
				spill(1)
			}
			if r.Exhausted() {
				t.Fatalf("temp %d exhausted at %d/%d", i, j, len(want[i]))
			}
			got := pop(r, now)
			if got[0] != want[i][j] {
				t.Fatalf("temp %d tuple %d = %v, want %d", i, j, got, want[i][j])
			}
		}
		if !r.Exhausted() {
			t.Errorf("temp %d not exhausted after full drain", i)
		}
	}
	if spilled == 0 {
		t.Error("property run never spilled; grant not tight enough to exercise eviction")
	}
}
