package sim

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Int63n(1000) != b.Int63n(1000) {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestRNGForkIndependence(t *testing.T) {
	// Forks with distinct ids from identically seeded parents must agree,
	// and distinct ids must (virtually always) disagree.
	p1, p2 := NewRNG(7), NewRNG(7)
	f1, f2 := p1.Fork(3), p2.Fork(3)
	for i := 0; i < 50; i++ {
		if f1.Int63n(1_000_000) != f2.Int63n(1_000_000) {
			t.Fatalf("equal forks diverged at draw %d", i)
		}
	}
	g1 := NewRNG(7).Fork(4)
	g2 := NewRNG(7).Fork(5)
	same := 0
	for i := 0; i < 50; i++ {
		if g1.Int63n(1_000_000) == g2.Int63n(1_000_000) {
			same++
		}
	}
	if same > 5 {
		t.Errorf("distinct forks matched %d/50 draws", same)
	}
}

func TestUniformDelayBounds(t *testing.T) {
	g := NewRNG(1)
	f := func(wMicros uint16) bool {
		w := time.Duration(wMicros) * time.Microsecond
		d := g.UniformDelay(w)
		return d >= 0 && d <= 2*w
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if g.UniformDelay(0) != 0 {
		t.Error("UniformDelay(0) != 0")
	}
	if g.UniformDelay(-time.Second) != 0 {
		t.Error("UniformDelay(negative) != 0")
	}
	// MaxWait is the largest mean whose [0, 2w] still fits a Duration.
	if d := g.UniformDelay(MaxWait); d < 0 {
		t.Errorf("UniformDelay(MaxWait) = %v", d)
	}
}

func TestUniformDelayMean(t *testing.T) {
	g := NewRNG(99)
	const w = 100 * time.Microsecond
	const n = 200000
	var total time.Duration
	for i := 0; i < n; i++ {
		total += g.UniformDelay(w)
	}
	mean := total / n
	if mean < 97*time.Microsecond || mean > 103*time.Microsecond {
		t.Errorf("mean delay %v deviates from w=%v by more than 3%%", mean, w)
	}
}

// TestRecycledRNGDrawsTheForkedStream pins the recycling contract behind
// pooled RNG streams: a generator that already drew part of another stream,
// reseeded with ForkSeed(id), draws exactly what Fork(id) of an identical
// parent draws, and Seed(seed) exactly what NewRNG(seed) draws — and the
// parent advances the same way under either.
func TestRecycledRNGDrawsTheForkedStream(t *testing.T) {
	recycled := NewRNG(99)
	for i := 0; i < 1000; i++ {
		recycled.Int63n(1 << 40) // partly consumed: mid-buffer state
	}
	parentA, parentB := NewRNG(7), NewRNG(7)
	for id := int64(1); id <= 4; id++ {
		fresh := parentA.Fork(id)
		recycled.Seed(parentB.ForkSeed(id))
		for i := 0; i < 700; i++ {
			if a, b := fresh.UniformDelay(time.Millisecond), recycled.UniformDelay(time.Millisecond); a != b {
				t.Fatalf("fork %d: draw %d: fresh %v, recycled %v", id, i, a, b)
			}
		}
		if a, b := parentA.Int63n(1<<62), parentB.Int63n(1<<62); a != b {
			t.Fatalf("after fork %d the parents diverged: %d vs %d", id, a, b)
		}
	}
	recycled.Float64()
	recycled.Seed(42)
	fresh := NewRNG(42)
	for i := 0; i < 700; i++ {
		if a, b := fresh.Intn(1000), recycled.Intn(1000); a != b {
			t.Fatalf("Seed(42): draw %d: NewRNG %d, recycled %d", i, a, b)
		}
	}
}

// TestInt63nMatchesMathRand: Int63n and UniformDelay return exactly what
// math/rand's Int63n returns from the same stream, draw for draw, for bounds
// whose rejection limits and remainders differ — small, just past a power
// of two, the wrapper delays' odd bounds, the largest UniformDelay bound —
// and for powers of two, also when consecutive draws switch bounds.
func TestInt63nMatchesMathRand(t *testing.T) {
	bounds := []int64{3, 5, 17, 1<<20 + 1, 1<<40 + 1, 1<<62 + 1, 40_001, 200_001, int64(2*MaxWait) + 1,
		1, 2, 1 << 10, 1 << 62}
	const draws = 5000
	for seed := int64(1); seed <= 24; seed++ {
		g, ref := NewRNG(seed), rand.New(rand.NewSource(seed))
		for _, n := range bounds {
			for i := range draws {
				if got, want := g.Int63n(n), ref.Int63n(n); got != want {
					t.Fatalf("seed %d bound %d draw %d: Int63n = %d, math/rand = %d", seed, n, i, got, want)
				}
			}
		}
		for i := range draws { // alternating bounds refill the cache every draw
			n := bounds[i%len(bounds)]
			if got, want := g.Int63n(n), ref.Int63n(n); got != want {
				t.Fatalf("seed %d alternating draw %d, bound %d: Int63n = %d, math/rand = %d", seed, i, n, got, want)
			}
		}
		for _, w := range []time.Duration{1, 20_000, 100_000, MaxWait} {
			for i := range draws {
				if got, want := g.UniformDelay(w), time.Duration(ref.Int63n(int64(2*w)+1)); got != want {
					t.Fatalf("seed %d wait %v draw %d: UniformDelay = %v, math/rand = %v", seed, w, i, got, want)
				}
			}
		}
	}
}

// BenchmarkUniformDelay times one wrapper-delay draw at a fixed mean wait.
func BenchmarkUniformDelay(b *testing.B) {
	g := NewRNG(1)
	var sum time.Duration
	for i := 0; i < b.N; i++ {
		sum += g.UniformDelay(20 * time.Microsecond)
	}
	_ = sum
}
