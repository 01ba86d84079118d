package sim

import (
	"errors"
	"math"
	"math/rand"
	"time"
)

// RNG is the deterministic random source used throughout the simulator:
// tuple delivery delays, synthetic data generation and query generation all
// draw from explicitly seeded streams so that every experiment is exactly
// reproducible.
type RNG struct {
	r *rand.Rand
}

// NewRNG returns a generator seeded with the given value.
func NewRNG(seed int64) *RNG {
	return &RNG{r: rand.New(rand.NewSource(seed))}
}

// Seed resets the generator to the state NewRNG(seed) starts in: it then
// draws exactly that stream, whatever it drew before. Reseeding recycles a
// generator's state instead of allocating a new one.
func (g *RNG) Seed(seed int64) { g.r.Seed(seed) }

// Fork derives an independent stream from this one, labelled by id. Distinct
// ids yield distinct, reproducible streams regardless of consumption order
// on the parent.
func (g *RNG) Fork(id int64) *RNG { return NewRNG(g.ForkSeed(id)) }

// ForkSeed draws the seed of the stream Fork(id) returns, for a recycled
// generator to Seed with: the parent advances exactly as Fork advances it.
func (g *RNG) ForkSeed(id int64) int64 {
	// SplitMix-style mixing of the parent's seed material with the id.
	z := uint64(g.r.Int63()) ^ (uint64(id) * 0x9E3779B97F4A7C15)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z)
}

// MaxWait is the largest mean waiting time UniformDelay can draw for: the
// interval [0, 2w] must fit a time.Duration (about 146 years). Whoever
// accepts a waiting time from outside refuses more with ErrWaitTooLarge.
const MaxWait = time.Duration(math.MaxInt64 / 2)

// ErrWaitTooLarge reports a mean waiting time above MaxWait.
var ErrWaitTooLarge = errors.New("waiting time exceeds the largest drawable mean (" + MaxWait.String() + ")")

// UniformDelay draws one tuple-production delay uniformly from [0, 2w],
// the paper's §5.1.3 methodology, so that the average waiting time is w
// (at most MaxWait).
func (g *RNG) UniformDelay(w time.Duration) time.Duration {
	if w <= 0 {
		return 0
	}
	return time.Duration(g.r.Int63n(int64(2*w) + 1))
}

// Intn returns a uniform integer in [0, n).
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Int63n returns a uniform int64 in [0, n).
func (g *RNG) Int63n(n int64) int64 { return g.r.Int63n(n) }

// Float64 returns a uniform float64 in [0, 1).
func (g *RNG) Float64() float64 { return g.r.Float64() }
