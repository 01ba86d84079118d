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
func collect(h interface{ Probe(int64) Matches }, key int64) []relation.Tuple {
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

// probeTable is the API HashTable and PartitionedHashTable share, so one
// differential test drives both.
type probeTable interface {
	Reserve(width, rows int)
	Insert(relation.Tuple)
	InsertBatch([]relation.Tuple)
	Probe(key int64) Matches
	ProbeConcat(dst []relation.Tuple, prefix relation.Tuple, key int64, arena *relation.Arena) ([]relation.Tuple, int)
	Rows() int64
	DistinctKeys() int
	Reset()
}

// concatAll returns a++m++b for every match m, in order: with b nil, the
// expected output of ProbeConcat (a = prefix).
func concatAll(a relation.Tuple, ms []relation.Tuple, b relation.Tuple) []relation.Tuple {
	var out []relation.Tuple
	for _, m := range ms {
		out = append(out, append(append(append(relation.Tuple{}, a...), m...), b...))
	}
	return out
}

// TestHashTableDifferentialVsMap drives the flat table, and the partitioned
// one at 1 and 4 parts, through randomized interleavings of Reserve, Insert,
// InsertBatch, Reset, Recycle and every probe entry point — Probe,
// ProbeConcat, Head, Heads with Chain, Entry and ConcatChain, DistinctKeys — against
// the map-based model, and requires identical results, including insertion
// order: the ordering the deterministic golden figures rely on. Every probe
// links what was inserted since the previous one; odd trials alternate one
// insert with one probe, as DPHJ's symmetric tables do, so the link pass
// also runs one pending row at a time.
func TestHashTableDifferentialVsMap(t *testing.T) {
	for trial := 0; trial < 90; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		keyIdx := rng.Intn(3)
		width := keyIdx + 1 + rng.Intn(3)
		keySpace := int64(1 + rng.Intn(60))
		var tab probeTable
		var recycle func(keyIdx int)
		switch parts := []int{0, 1, 4}[trial%3]; parts {
		case 0:
			h := NewHashTable(keyIdx)
			tab, recycle = h, h.Recycle
		default:
			h := NewPartitioned(keyIdx, parts)
			tab, recycle = h, func(k int) { h.Recycle(k, parts) }
		}
		flat, _ := tab.(*HashTable)
		ref, rows := newReferenceTable(keyIdx), int64(0)
		randKey := func() int64 { return rng.Int63n(keySpace) - keySpace/2 }
		newTuple := func() relation.Tuple {
			tup := make(relation.Tuple, width)
			for c := range tup {
				tup[c] = randKey()
			}
			return tup
		}
		insert := func(tup relation.Tuple) {
			tab.Insert(tup)
			ref.Insert(tup)
			rows++
		}
		probe := func(op int) {
			k := randKey()
			got, want := collect(tab, k), ref.Probe(k)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d op %d: Probe(%d) = %v, want %v", trial, op, k, got, want)
			}
			var arena relation.Arena
			fix := relation.Tuple{-7, k}
			if got, n := tab.ProbeConcat(nil, fix, k, &arena); n != len(want) || !reflect.DeepEqual(got, concatAll(fix, want, nil)) {
				t.Fatalf("trial %d op %d: ProbeConcat(%d) = %v", trial, op, k, got)
			}
			if flat == nil {
				return
			}
			keys := []int64{k, randKey(), randKey(), k}
			heads := make([]int32, len(keys))
			flat.Heads(keys, heads)
			for i, key := range keys {
				want := ref.Probe(key)
				if got, n := flat.ConcatChain(nil, fix, heads[i], &arena); n != len(want) || !reflect.DeepEqual(got, concatAll(fix, want, nil)) {
					t.Fatalf("trial %d op %d: Heads/ConcatChain(%d) = %v", trial, op, key, got)
				}
				if h := flat.Head(key); h != heads[i] {
					t.Fatalf("trial %d op %d: Head(%d) = %d, Heads says %d", trial, op, key, h, heads[i])
				}
				var got []relation.Tuple
				for _, e := range flat.Chain(nil, heads[i]) {
					got = append(got, flat.Entry(e))
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d op %d: Heads/Chain/Entry(%d) = %v, want %v", trial, op, key, got, want)
				}
			}
		}
		for op := 0; op < 400; op++ {
			if trial%2 == 1 && op < 300 {
				insert(newTuple())
				probe(op)
				continue
			}
			switch r := rng.Intn(40); {
			case r < 16:
				insert(newTuple())
			case r < 20:
				batch := make([]relation.Tuple, rng.Intn(40))
				for i := range batch {
					batch[i] = newTuple()
				}
				tab.InsertBatch(batch)
				for _, tup := range batch {
					ref.Insert(tup)
				}
				rows += int64(len(batch))
			case r < 33:
				probe(op)
			case r < 37:
				if tab.Rows() != rows || tab.DistinctKeys() != len(ref.buckets) {
					t.Fatalf("trial %d op %d: Rows %d DistinctKeys %d, want %d and %d",
						trial, op, tab.Rows(), tab.DistinctKeys(), rows, len(ref.buckets))
				}
			default:
				// Empty the table, sometimes rekeyed, to a new width and
				// sometimes a reservation: stale buckets must not leak.
				if r == 37 {
					tab.Reset()
				} else {
					keyIdx = rng.Intn(3)
					recycle(keyIdx)
				}
				width = keyIdx + 1 + rng.Intn(3)
				ref, rows = newReferenceTable(keyIdx), 0
				if rng.Intn(2) == 0 {
					tab.Reserve(width, rng.Intn(300))
				}
			}
		}
	}
}

// TestZeroMatchesIsEmpty pins Matches' documented zero value: an empty
// iteration, not a nil dereference.
func TestZeroMatchesIsEmpty(t *testing.T) {
	var m Matches
	if got := m.Next(); got != nil {
		t.Fatalf("zero Matches yielded %v", got)
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
	c := NewCosts(clock, sim.DefaultParams())
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
}
