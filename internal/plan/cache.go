package plan

import "sync"

// DecompositionCache tells decomposition lookups apart per plan root: the
// first Load of a root is a miss, every later one a hit. It shares nothing a
// plan does not already share — Builder.Output decomposes each plan once,
// and every Load returns that one decomposition — so it only reports which
// runs reused a plan. Kept only because bench/ reads its counts through
// Result.PlanCacheHits/Misses — remove with the next [benchmark] PR. Safe
// for concurrent use; a nil cache reports no hits.
type DecompositionCache struct {
	mu   sync.Mutex
	seen map[*Node]bool
}

// NewDecompositionCache returns an empty cache.
func NewDecompositionCache() *DecompositionCache {
	return &DecompositionCache{seen: make(map[*Node]bool)}
}

// Load returns the decomposition of root (Decompose) and whether this cache
// had loaded root before.
func (c *DecompositionCache) Load(root *Node) (dec *Decomposition, hit bool, err error) {
	dec, err = Decompose(root)
	if err != nil || c == nil {
		return dec, false, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	hit = c.seen[root]
	c.seen[root] = true
	return dec, hit, nil
}
