package plan

import (
	"sync"
	"sync/atomic"
)

// decEntry is one singleflight slot of a DecompositionCache: the entry is
// published under the mutex before the decomposition exists, and the once
// makes the first claimant decompose while concurrent claimants block on the
// same slot — each plan root is decomposed exactly once no matter how many
// runs race for it.
type decEntry struct {
	once sync.Once
	dec  *Decomposition
	err  error
}

// DecompositionCache memoizes pipeline-chain decompositions keyed by plan
// root. Plans are immutable during execution (all mutable run state lives in
// the per-run mediator), and a Decomposition only indexes its plan's chains,
// so one cached decomposition can safely back any number of concurrent runs
// of the same plan. All methods are safe for concurrent use; a nil cache
// loads without memoizing.
type DecompositionCache struct {
	mu      sync.Mutex
	entries map[*Node]*decEntry

	hits   atomic.Int64
	misses atomic.Int64
}

// NewDecompositionCache returns an empty cache.
func NewDecompositionCache() *DecompositionCache {
	return &DecompositionCache{entries: make(map[*Node]*decEntry)}
}

// Load returns the decomposition of root, computing and memoizing it on
// first use. hit reports whether the entry already existed. A nil cache
// decomposes directly (never a hit).
func (c *DecompositionCache) Load(root *Node) (dec *Decomposition, hit bool, err error) {
	if c == nil {
		dec, err = Decompose(root)
		return dec, false, err
	}
	c.mu.Lock()
	e, ok := c.entries[root]
	if !ok {
		e = &decEntry{}
		c.entries[root] = e
	}
	c.mu.Unlock()
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	e.once.Do(func() {
		e.dec, e.err = Decompose(root)
	})
	return e.dec, ok, e.err
}

// Stats returns the cumulative hit and miss counts.
func (c *DecompositionCache) Stats() (hits, misses int64) {
	if c == nil {
		return 0, 0
	}
	return c.hits.Load(), c.misses.Load()
}

// Len returns the number of cached entries.
func (c *DecompositionCache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
