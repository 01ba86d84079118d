package operator

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"dqs/internal/relation"
	"dqs/internal/sim"
)

// collect drains a probe iterator into a slice, in match order.
func collect(h *HashTable, key int64) []relation.Tuple {
	var out []relation.Tuple
	for it := h.Probe(key); ; {
		m := it.Next()
		if m == nil {
			return out
		}
		out = append(out, m)
	}
}

func TestHashTableInsertProbe(t *testing.T) {
	h := NewHashTable(1)
	h.Insert(relation.Tuple{10, 5})
	h.Insert(relation.Tuple{11, 5})
	h.Insert(relation.Tuple{12, 7})
	if h.Rows() != 3 {
		t.Fatalf("Rows = %d", h.Rows())
	}
	if got := len(collect(h, 5)); got != 2 {
		t.Errorf("Probe(5) returned %d matches", got)
	}
	if got := len(collect(h, 7)); got != 1 {
		t.Errorf("Probe(7) returned %d matches", got)
	}
	if got := len(collect(h, 99)); got != 0 {
		t.Errorf("Probe(99) returned %d matches", got)
	}
	if got := h.MemBytes(40); got != 120 {
		t.Errorf("MemBytes = %d", got)
	}
	if got := h.DistinctKeys(); got != 2 {
		t.Errorf("DistinctKeys = %d", got)
	}
}

func TestHashTableNegativeKeyIndexPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative key index accepted")
		}
	}()
	NewHashTable(-1)
}

func TestHashTableWidthMismatchPanics(t *testing.T) {
	h := NewHashTable(0)
	h.Insert(relation.Tuple{1, 2})
	defer func() {
		if recover() == nil {
			t.Error("width mismatch accepted")
		}
	}()
	h.Insert(relation.Tuple{1})
}

func TestHashTableMatchesBruteForce(t *testing.T) {
	f := func(keysRaw []uint8, probe uint8) bool {
		h := NewHashTable(0)
		count := 0
		k := int64(probe % 16)
		for i, raw := range keysRaw {
			key := int64(raw % 16)
			h.Insert(relation.Tuple{key, int64(i)})
			if key == k {
				count++
			}
		}
		return len(collect(h, k)) == count
	}
	cfg := &quick.Config{MaxCount: 200}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// referenceTable is the pre-flat map-based implementation, kept as the
// differential-test oracle: bucketed on the key column, matches returned in
// insertion order.
type referenceTable struct {
	keyIdx  int
	buckets map[int64][]relation.Tuple
}

func newReferenceTable(keyIdx int) *referenceTable {
	return &referenceTable{keyIdx: keyIdx, buckets: make(map[int64][]relation.Tuple)}
}

func (r *referenceTable) Insert(t relation.Tuple) {
	k := t[r.keyIdx]
	r.buckets[k] = append(r.buckets[k], append(relation.Tuple(nil), t...))
}

func (r *referenceTable) Probe(key int64) []relation.Tuple { return r.buckets[key] }

// TestHashTableDifferentialVsMap drives the flat table and the old map-based
// implementation through identical randomized insert/probe sequences and
// requires identical results, including insertion order — the ordering the
// deterministic golden figures rely on.
func TestHashTableDifferentialVsMap(t *testing.T) {
	for trial := 0; trial < 50; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		keyIdx := rng.Intn(3)
		width := keyIdx + 1 + rng.Intn(3)
		h := NewHashTable(keyIdx)
		ref := newReferenceTable(keyIdx)
		keySpace := int64(1 + rng.Intn(40))
		n := rng.Intn(500)
		for i := 0; i < n; i++ {
			tup := make(relation.Tuple, width)
			for c := range tup {
				tup[c] = rng.Int63n(keySpace) - keySpace/2
			}
			h.Insert(tup)
			ref.Insert(tup)
			// Interleave probes with inserts.
			if rng.Intn(4) == 0 {
				k := rng.Int63n(keySpace) - keySpace/2
				got, want := collect(h, k), ref.Probe(k)
				if len(got) != len(want) {
					t.Fatalf("trial %d: probe(%d) after %d inserts: %d matches, want %d", trial, k, i+1, len(got), len(want))
				}
			}
		}
		if h.Rows() != int64(n) {
			t.Fatalf("trial %d: Rows = %d, want %d", trial, h.Rows(), n)
		}
		// Full sweep of the key space: identical multisets in insertion order.
		for k := -keySpace; k <= keySpace; k++ {
			got, want := collect(h, k), ref.Probe(k)
			if len(got) != len(want) {
				t.Fatalf("trial %d: probe(%d): %d matches, want %d", trial, k, len(got), len(want))
			}
			for i := range got {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("trial %d: probe(%d) match %d = %v, want %v (insertion order violated)", trial, k, i, got[i], want[i])
				}
			}
		}
	}
}

// TestHashTableSteadyStateInsertDoesNotAllocate pins the allocation-light
// contract: once the table's arena and bucket array have grown to capacity,
// a Reset/refill cycle performs zero allocations.
func TestHashTableSteadyStateInsertDoesNotAllocate(t *testing.T) {
	h := NewHashTable(0)
	tuples := make([]relation.Tuple, 512)
	for i := range tuples {
		tuples[i] = relation.Tuple{int64(i % 37), int64(i), int64(-i)}
	}
	fill := func() {
		h.Reset()
		for _, tup := range tuples {
			h.Insert(tup)
		}
	}
	fill() // warm up capacity
	if got := testing.AllocsPerRun(20, fill); got != 0 {
		t.Errorf("steady-state Reset+Insert×%d allocates %v times per run, want 0", len(tuples), got)
	}
}

// TestHashTableProbeDoesNotAllocate pins Probe and match iteration at zero
// allocations.
func TestHashTableProbeDoesNotAllocate(t *testing.T) {
	h := NewHashTable(0)
	for i := 0; i < 512; i++ {
		h.Insert(relation.Tuple{int64(i % 37), int64(i)})
	}
	var sink int64
	probe := func() {
		for k := int64(0); k < 64; k++ {
			for it := h.Probe(k); ; {
				m := it.Next()
				if m == nil {
					break
				}
				sink += m[1]
			}
		}
	}
	if got := testing.AllocsPerRun(20, probe); got != 0 {
		t.Errorf("Probe allocates %v times per run, want 0", got)
	}
	_ = sink
}

func TestHashTableReset(t *testing.T) {
	h := NewHashTable(0)
	h.Insert(relation.Tuple{1, 10})
	h.Insert(relation.Tuple{2, 20})
	h.Reset()
	if h.Rows() != 0 || h.DistinctKeys() != 0 {
		t.Fatalf("after Reset: rows=%d keys=%d", h.Rows(), h.DistinctKeys())
	}
	if got := len(collect(h, 1)); got != 0 {
		t.Fatalf("probe after Reset returned %d matches", got)
	}
	// A reset table accepts a different width.
	h.Insert(relation.Tuple{5})
	if got := collect(h, 5); len(got) != 1 || len(got[0]) != 1 {
		t.Fatalf("insert after Reset: %v", got)
	}
}

func TestHashTableGrowthKeepsChains(t *testing.T) {
	// Enough distinct keys to force several bucket-array doublings, with
	// duplicates sprinkled in; every chain must survive rehashing intact.
	h := NewHashTable(0)
	const keys, dups = 1000, 3
	for d := 0; d < dups; d++ {
		for k := 0; k < keys; k++ {
			h.Insert(relation.Tuple{int64(k), int64(d)})
		}
	}
	if h.DistinctKeys() != keys {
		t.Fatalf("DistinctKeys = %d, want %d", h.DistinctKeys(), keys)
	}
	for k := 0; k < keys; k += 97 {
		got := collect(h, int64(k))
		if len(got) != dups {
			t.Fatalf("probe(%d): %d matches, want %d", k, len(got), dups)
		}
		for d, m := range got {
			if m[1] != int64(d) {
				t.Fatalf("probe(%d) match %d out of insertion order: %v", k, d, got)
			}
		}
	}
}

func TestCostsChargeTable1Times(t *testing.T) {
	clock := sim.NewClock()
	p := sim.DefaultParams()
	c := NewCosts(clock, p)
	c.ChargeMove() // 100 instr = 1µs
	if clock.Now() != time.Microsecond {
		t.Errorf("move charged %v", clock.Now())
	}
	c.ChargeProbe()  // +1µs
	c.ChargeResult() // +0.5µs
	want := 2*time.Microsecond + 500*time.Nanosecond
	if clock.Now() != want {
		t.Errorf("clock = %v, want %v", clock.Now(), want)
	}
	before := clock.Now()
	c.ChargeReceive()
	if got := clock.Now() - before; got != p.InstrTime(p.ReceiveTupleInstr()) {
		t.Errorf("receive charged %v", got)
	}
}
