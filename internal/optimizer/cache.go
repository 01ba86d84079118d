package optimizer

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"dqs/internal/plan"
	"dqs/internal/relation"
)

// CachedPlan is one optimized, decomposed plan served by a PlanCache. Root
// and Dec are immutable during execution (mutable run state lives in the
// per-run mediator), so one CachedPlan can back any number of concurrent
// runs.
type CachedPlan struct {
	Root *plan.Node
	Dec  *plan.Decomposition
}

// boundPlan is the singleflight slot for one literal binding of a shape.
type boundPlan struct {
	once sync.Once
	p    *CachedPlan
	err  error
}

// planEntry is the singleflight slot for one query shape: the DP solution is
// solved exactly once per shape, and each literal binding of the shape gets
// its own constructed plan under the entry.
type planEntry struct {
	once sync.Once
	sol  *solution
	err  error

	mu    sync.Mutex
	plans map[string]*boundPlan
}

// PlanCache memoizes optimizer output keyed by query shape. The shape key
// canonicalizes the query structure and the statistics the DP reads —
// relations (with cardinalities and schemas), join predicates, filtered
// columns, statistic domains and skew — but deliberately excludes filter
// literals: repeated parameterized queries share one DP enumeration
// (classical plan-cache semantics, so the join order is the one solved for
// the first binding seen), while construct rebinds the scan predicates and
// re-annotates row estimates per literal so every served plan evaluates its
// own literals. Structurally distinct queries or statistics can never share
// an entry.
//
// Loading is modeled on the experiment workload cache: entries are published
// under a mutex before they are built, and sync.Once makes the first
// claimant build while concurrent claimants block on the same slot, so
// parallel sweep cells share entries race-free. All methods are safe for
// concurrent use.
type PlanCache struct {
	mu      sync.Mutex
	entries map[string]*planEntry
	decs    *plan.DecompositionCache

	hits   atomic.Int64
	misses atomic.Int64
	builds atomic.Int64
}

// NewPlanCache returns an empty plan cache.
func NewPlanCache() *PlanCache {
	return &PlanCache{
		entries: make(map[string]*planEntry),
		decs:    plan.NewDecompositionCache(),
	}
}

// Load returns the optimized plan for the query, solving the DP at most once
// per query shape and constructing at most once per literal binding. A load
// that finds the shape entry counts as a hit even when its literal binding
// still needs constructing — the expensive DP work is shared.
func (c *PlanCache) Load(cat *relation.Catalog, q *Query, stats *plan.Stats) (*CachedPlan, error) {
	key := ShapeKey(cat, q, stats)
	c.mu.Lock()
	e, ok := c.entries[key]
	if !ok {
		e = &planEntry{plans: make(map[string]*boundPlan)}
		c.entries[key] = e
	}
	c.mu.Unlock()
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	e.once.Do(func() {
		e.sol, e.err = solve(cat, q, stats)
	})
	if e.err != nil {
		return nil, e.err
	}
	bk := literalKey(q)
	e.mu.Lock()
	b, bound := e.plans[bk]
	if !bound {
		b = &boundPlan{}
		e.plans[bk] = b
	}
	e.mu.Unlock()
	b.once.Do(func() {
		c.builds.Add(1)
		root, err := e.sol.construct(q, stats)
		if err != nil {
			b.err = err
			return
		}
		dec, _, err := c.decs.Load(root)
		if err != nil {
			b.err = err
			return
		}
		b.p = &CachedPlan{Root: root, Dec: dec}
	})
	return b.p, b.err
}

// CacheStats snapshots a PlanCache's counters.
type CacheStats struct {
	// Hits and Misses count Load calls by whether the shape entry existed.
	Hits, Misses int64
	// Builds counts plan constructions (one per shape × literal binding).
	Builds int64
	// Entries is the number of distinct shapes cached.
	Entries int
}

// Stats returns the cache counters.
func (c *PlanCache) Stats() CacheStats {
	c.mu.Lock()
	n := len(c.entries)
	c.mu.Unlock()
	return CacheStats{
		Hits:    c.hits.Load(),
		Misses:  c.misses.Load(),
		Builds:  c.builds.Load(),
		Entries: n,
	}
}

// ShapeKey canonicalizes everything the DP enumeration reads except filter
// literals: relation order, names, cardinalities and schemas; join
// predicates in query order; which columns carry filters; and the statistic
// domains and skew. Two queries receive equal keys iff the solver would walk
// an identical search space for them (up to literal values).
func ShapeKey(cat *relation.Catalog, q *Query, stats *plan.Stats) string {
	var b strings.Builder
	for _, name := range q.Relations {
		fmt.Fprintf(&b, "R|%s", name)
		if r, ok := cat.Lookup(name); ok {
			fmt.Fprintf(&b, "|%d|", r.Cardinality)
			for i, col := range r.Schema.Cols {
				if i > 0 {
					b.WriteByte(',')
				}
				b.WriteString(col.Col)
			}
		}
		b.WriteByte(';')
	}
	for _, p := range q.Predicates {
		fmt.Fprintf(&b, "P|%s=%s;", p.Left, p.Right)
	}
	for _, rel := range sortedFilterRels(q) {
		fmt.Fprintf(&b, "F|%s.%s;", rel, q.Filters[rel].Col.Col)
	}
	if stats != nil {
		fmt.Fprintf(&b, "S|skew=%g;", stats.Skew)
		refs := make([]relation.ColRef, 0, len(stats.Domains))
		for ref := range stats.Domains {
			refs = append(refs, ref)
		}
		sort.Slice(refs, func(i, j int) bool {
			return refs[i].String() < refs[j].String()
		})
		for _, ref := range refs {
			fmt.Fprintf(&b, "D|%s=%d;", ref, stats.Domains[ref])
		}
	}
	return b.String()
}

// literalKey canonicalizes the filter literals of a query — the only query
// input ShapeKey leaves out.
func literalKey(q *Query) string {
	var b strings.Builder
	for _, rel := range sortedFilterRels(q) {
		fmt.Fprintf(&b, "%s<%d;", rel, q.Filters[rel].Less)
	}
	return b.String()
}

// sortedFilterRels returns the filtered relation names in sorted order.
func sortedFilterRels(q *Query) []string {
	if len(q.Filters) == 0 {
		return nil
	}
	rels := make([]string, 0, len(q.Filters))
	for rel := range q.Filters {
		rels = append(rels, rel)
	}
	sort.Strings(rels)
	return rels
}
