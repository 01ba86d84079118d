package operator

import (
	"math/rand"
	"testing"

	"dqs/internal/relation"
)

// The build benchmarks pin the estimator-pre-sizing payoff: Reserve
// allocates the arena, chain links and a load-factor-safe bucket array up
// front, so a build within the reservation never grows mid-insert, while
// the growing variant pays the geometric arena re-copies and bucket-array
// rehashes the pre-sizing removes.

const benchBuildRows = 4096

func buildTuples() []relation.Tuple {
	tuples := make([]relation.Tuple, benchBuildRows)
	for i := range tuples {
		tuples[i] = relation.Tuple{int64(i), int64(i * 3), int64(-i)}
	}
	return tuples
}

// BenchmarkHashBuildGrowing builds from the 8-bucket empty state every
// iteration — the pre-Reserve behaviour.
func BenchmarkHashBuildGrowing(b *testing.B) {
	tuples := buildTuples()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := NewHashTable(0)
		h.InsertBatch(tuples)
		if h.Rows() != benchBuildRows {
			b.Fatal("short build")
		}
	}
}

// joinKernelMatches keeps BenchmarkJoinKernel's probe loop observable.
var joinKernelMatches int

// BenchmarkJoinKernel times build and probe at a size that overflows L2,
// which the 4 096-row builds here cannot: a J2-shaped build — 120 K width-5
// rows keyed over a 144 K domain, like full-scale Figure 5's A⋈E built on
// A.k2 — inserted in 256-row batches and linked by its first probe, then
// 150 K probe keys resolved 256 at a time with Heads, each chain walked to
// entry indices with Chain and every match gathered once, behind a width-3
// probe row, straight into a destination table's Extend storage: the
// engine's path from a temp-fed fragment's chunk into its build terminal.
// ns/tuple divides by build rows plus probe keys.
func BenchmarkJoinKernel(b *testing.B) {
	const buildRows, probeKeys, domain, chunk = 120_000, 150_000, 144_000, 256
	rng := rand.New(rand.NewSource(1))
	build := make([]relation.Tuple, buildRows)
	for i := range build {
		build[i] = relation.Tuple{int64(i), rng.Int63n(domain), rng.Int63n(domain), int64(i), rng.Int63n(domain)}
	}
	keys := make([]int64, probeKeys)
	for i := range keys {
		keys[i] = rng.Int63n(domain)
	}
	prefix := relation.Tuple{0, 0, 0}
	heads := make([]int32, chunk)
	var ents []int32
	h, dst := NewHashTable(2), NewHashTable(0)
	const w = 3 + 5
	join := func() int {
		h.Reset()
		h.Reserve(len(build[0]), buildRows)
		for j := 0; j < buildRows; j += chunk {
			h.InsertBatch(build[j:min(j+chunk, buildRows)])
		}
		dst.Reset()
		dst.Reserve(w, buildRows)
		for j := 0; j < probeKeys; j += chunk {
			run := keys[j:min(j+chunk, probeKeys)]
			h.Heads(run, heads)
			for i, head := range heads[:len(run)] {
				prefix[0] = run[i]
				ents = h.Chain(ents[:0], head)
				rows := dst.Extend(w, len(ents))
				for r, e := range ents {
					copy(rows[r*w+copy(rows[r*w:], prefix):], h.Entry(e))
				}
			}
		}
		return int(dst.Rows())
	}
	join() // grow the table, destination and index list: time the steady state
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		joinKernelMatches = join()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*(buildRows+probeKeys)), "ns/tuple")
}

// BenchmarkHashBuildPresized builds into a table reserved at the exact
// cardinality, the shape the runtime produces from a recorded build hint.
func BenchmarkHashBuildPresized(b *testing.B) {
	tuples := buildTuples()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := NewHashTable(0)
		h.Reserve(3, benchBuildRows)
		h.InsertBatch(tuples)
		if h.Rows() != benchBuildRows {
			b.Fatal("short build")
		}
	}
}
