// Residue: tests of partition.go, kept with it for bench/ — remove with the
// next [benchmark] PR.

package operator

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"dqs/internal/relation"
)

// collectPart drains a partitioned probe iterator in match order.
func collectPart(h *PartitionedHashTable, key int64) []relation.Tuple {
	var out []relation.Tuple
	for it := h.Probe(key); ; {
		m := it.Next()
		if m == nil {
			return out
		}
		out = append(out, m)
	}
}

// TestPartitionedMatchesFlat is the model test of the partitioned table:
// for random insert sequences (skewed key domain, so chains form), a
// PartitionedHashTable at every partition count must replay exactly the
// flat HashTable's probe sequences — same matches, same order — and agree
// on the row/key accounting. This is the property the parallel build path
// relies on for bit-identical results.
func TestPartitionedMatchesFlat(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		n := rng.Intn(300)
		domain := 1 + rng.Intn(40)
		flat := NewHashTable(1)
		tuples := make([]relation.Tuple, n)
		for i := range tuples {
			tuples[i] = relation.Tuple{int64(i), int64(rng.Intn(domain)), int64(-i)}
			flat.Insert(tuples[i])
		}
		for _, parts := range []int{1, 2, 4, 8, 16} {
			part := NewPartitioned(1, parts)
			part.InsertBatch(tuples)
			if part.Rows() != flat.Rows() {
				t.Fatalf("trial %d parts %d: Rows = %d, flat %d", trial, parts, part.Rows(), flat.Rows())
			}
			if part.DistinctKeys() != flat.DistinctKeys() {
				t.Fatalf("trial %d parts %d: DistinctKeys = %d, flat %d", trial, parts, part.DistinctKeys(), flat.DistinctKeys())
			}
			if part.MemBytes(40) != flat.MemBytes(40) {
				t.Fatalf("trial %d parts %d: MemBytes = %d, flat %d", trial, parts, part.MemBytes(40), flat.MemBytes(40))
			}
			for key := int64(-1); key <= int64(domain); key++ {
				want := collect(flat, key)
				got := collectPart(part, key)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d parts %d key %d: Probe = %v, flat %v", trial, parts, key, got, want)
				}
				var arena, arenaFlat relation.Arena
				prefix := relation.Tuple{99, key}
				wantCat, wantK := flat.ProbeConcat(nil, prefix, key, &arenaFlat)
				gotCat, gotK := part.ProbeConcat(nil, prefix, key, &arena)
				if gotK != wantK || !reflect.DeepEqual(gotCat, wantCat) {
					t.Fatalf("trial %d parts %d key %d: ProbeConcat diverged", trial, parts, key)
				}
			}
		}
	}
}

// TestPartitionedPerPartitionBuildMatchesSerial pins the parallel-build
// contract: routing a run with Route, bulk-inserting each partition's
// bucket directly via Part (as concurrent workers do), must produce the
// same table as the serial InsertBatch of the whole run.
func TestPartitionedPerPartitionBuildMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, parts := range []int{2, 4, 8} {
		n := 500
		tuples := make([]relation.Tuple, n)
		for i := range tuples {
			tuples[i] = relation.Tuple{int64(rng.Intn(60)), int64(i)}
		}
		serial := NewPartitioned(0, parts)
		serial.InsertBatch(tuples)

		scattered := NewPartitioned(0, parts)
		buckets := make([][]relation.Tuple, parts)
		for _, tu := range tuples {
			p := scattered.Route(tu)
			if p != scattered.RouteKey(tu[0]) {
				t.Fatalf("Route and RouteKey disagree")
			}
			buckets[p] = append(buckets[p], tu)
		}
		var wg sync.WaitGroup
		for p := 0; p < parts; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				scattered.Part(p).InsertBatch(buckets[p])
			}(p)
		}
		wg.Wait()

		for key := int64(0); key < 60; key++ {
			if !reflect.DeepEqual(collectPart(scattered, key), collectPart(serial, key)) {
				t.Fatalf("parts %d key %d: scattered build diverged from serial", parts, key)
			}
		}
	}
}

// TestPartitionedRecycle proves recycling clears contents, re-targets the
// key column and survives partition-count changes in both directions.
func TestPartitionedRecycle(t *testing.T) {
	h := NewPartitioned(0, 8)
	h.Reserve(2, 100)
	for i := 0; i < 100; i++ {
		h.Insert(relation.Tuple{int64(i % 5), int64(i)})
	}
	h.Recycle(1, 2)
	if h.Rows() != 0 || h.Parts() != 2 {
		t.Fatalf("after Recycle: Rows=%d Parts=%d", h.Rows(), h.Parts())
	}
	h.Insert(relation.Tuple{7, 3})
	if got := len(collectPart(h, 3)); got != 1 {
		t.Errorf("re-targeted key column: Probe(3) = %d matches", got)
	}
	h.Recycle(0, 16)
	if h.Parts() != 16 || h.Rows() != 0 {
		t.Fatalf("after growth Recycle: Rows=%d Parts=%d", h.Rows(), h.Parts())
	}
	h.Recycle(0, 1)
	h.Insert(relation.Tuple{4, 9})
	if got := len(collectPart(h, 4)); got != 1 {
		t.Errorf("single-partition recycle: Probe(4) = %d matches", got)
	}
}

// TestPartitionedRejectsBadShape mirrors the flat table's constructor
// contract for the partitioned wrapper.
func TestPartitionedRejectsBadShape(t *testing.T) {
	for _, parts := range []int{0, -1, 3, 6, 12} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("partition count %d accepted", parts)
				}
			}()
			NewPartitioned(0, parts)
		}()
	}
	defer func() {
		if recover() == nil {
			t.Error("negative key index accepted")
		}
	}()
	NewPartitioned(-1, 4)
}

// TestPartitionedReset keeps partition count and drops contents.
func TestPartitionedReset(t *testing.T) {
	h := NewPartitioned(0, 4)
	h.InsertBatch([]relation.Tuple{{1, 1}, {2, 2}})
	h.Reset()
	if h.Rows() != 0 || h.Parts() != 4 {
		t.Fatalf("after Reset: Rows=%d Parts=%d", h.Rows(), h.Parts())
	}
	if got := len(collectPart(h, 1)); got != 0 {
		t.Errorf("Probe(1) after Reset = %d matches", got)
	}
}

const benchParallelParts = 8

// BenchmarkHashBuildParallel measures the partition-parallel build kernel
// in isolation: serial radix scatter, then per-partition bulk inserts on
// one goroutine per partition, the shape bench/replay.go's replayBuild runs.
// Compare against BenchmarkHashBuildPresized for the flat serial baseline
// (speedups require GOMAXPROCS > 1; on one core the scatter+goroutine
// overhead is the interesting number).
func BenchmarkHashBuildParallel(b *testing.B) {
	tuples := buildTuples()
	buckets := make([][]relation.Tuple, benchParallelParts)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := NewPartitioned(0, benchParallelParts)
		h.Reserve(3, benchBuildRows)
		for p := range buckets {
			buckets[p] = buckets[p][:0]
		}
		for _, tu := range tuples {
			p := h.Route(tu)
			buckets[p] = append(buckets[p], tu)
		}
		var wg sync.WaitGroup
		for p := 0; p < benchParallelParts; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				h.Part(p).InsertBatch(buckets[p])
			}(p)
		}
		wg.Wait()
		if h.Rows() != benchBuildRows {
			b.Fatal("short build")
		}
	}
}

// BenchmarkProbeParallel measures partition-routed probe cascades fanned
// across one goroutine per chunk with private arenas — the shape of the
// fragment's parallel probe phase.
func BenchmarkProbeParallel(b *testing.B) {
	tuples := buildTuples()
	h := NewPartitioned(0, benchParallelParts)
	h.Reserve(3, benchBuildRows)
	h.InsertBatch(tuples)
	workers := benchParallelParts
	arenas := make([]relation.Arena, workers)
	outs := make([][]relation.Tuple, workers)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		per := len(tuples) / workers
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				arenas[w].Reset()
				out := outs[w][:0]
				for _, tu := range tuples[w*per : (w+1)*per] {
					out, _ = h.ProbeConcat(out, tu, tu[0], &arenas[w])
				}
				outs[w] = out
			}(w)
		}
		wg.Wait()
	}
}
