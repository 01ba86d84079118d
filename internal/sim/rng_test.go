package sim

import (
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
