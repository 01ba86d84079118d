package mem

import (
	"fmt"
	"sort"
)

// HolderID names one registered reservation holder (one hash-table build,
// one resident materialization, ...) inside a Governor. IDs are dense slice
// indices, so per-tuple accounting on the build hot path is a bounds check
// and an add — no map lookup.
type HolderID int

// Holding is one holder's current reservation, as reported by Holdings.
// Owner groups holders belonging to one query of a multi-query service
// (empty for single-query holders registered with Bind).
type Holding struct {
	Name  string
	Owner string
	Bytes int64
}

// Governor is the budget-aware materialization scheduler over a Manager
// ledger. Where the Manager answers only "does n fit?", the Governor knows
// *who* holds the grant (per-chain build reservations, registered with Bind/
// Note) and *what can be evicted* (resident pages of temp relations, see
// Temp): under pressure it frees memory by spilling already-materialized
// prefixes — largest resident temp first, oldest pages first — instead of
// forcing the planner to degrade another chain. The Manager itself stays the
// single ledger: every byte the Governor tracks is reserved and released
// through it.
type Governor struct {
	mgr     *Manager
	holders []Holding
	// resident lists temps currently holding resident (memory-backed) pages,
	// in registration order; entries whose resident bytes reach zero are
	// compacted away lazily during spill scans.
	resident      []*Temp
	residentBytes int64
	spilledPages  int64
	// writeThrough, once set, admits no more resident pages: every page
	// written afterwards goes straight to disk.
	writeThrough bool
}

// NewGovernor wraps an existing Manager ledger.
func NewGovernor(m *Manager) *Governor {
	if m == nil {
		panic("mem: governor over nil manager")
	}
	return &Governor{mgr: m}
}

// Manager returns the underlying ledger.
func (g *Governor) Manager() *Manager { return g.mgr }

// Bind registers a named reservation holder and returns its ID.
func (g *Governor) Bind(name string) HolderID {
	return g.BindOwned("", name)
}

// BindOwned registers a named reservation holder attributed to an owning
// query. Owner attribution lets a multi-query service read each query's
// share of the global ledger (OwnerHeld, HoldingsByOwner) while spill and
// split decisions keep ranking holders globally.
func (g *Governor) BindOwned(owner, name string) HolderID {
	g.holders = append(g.holders, Holding{Name: name, Owner: owner})
	return HolderID(len(g.holders) - 1)
}

// OwnerHeld returns the sum of the holdings attributed to one owner.
func (g *Governor) OwnerHeld(owner string) int64 {
	var total int64
	for _, h := range g.holders {
		if h.Owner == owner {
			total += h.Bytes
		}
	}
	return total
}

// HoldingsByOwner returns every owner's total held bytes. Owners whose
// holdings are all zero are included while registered — the per-query view
// must account for every query the ledger knows, held or not. By
// construction the values sum to HeldTotal.
func (g *Governor) HoldingsByOwner() map[string]int64 {
	out := make(map[string]int64)
	for _, h := range g.holders {
		out[h.Owner] += h.Bytes
	}
	return out
}

// Note accounts delta bytes (positive or negative) to a holder. The caller
// has already performed the matching Manager Reserve/Release; Note only
// attributes it. A holding driven negative is an accounting bug and panics,
// mirroring Manager.Release.
func (g *Governor) Note(h HolderID, delta int64) {
	held := g.holders[h].Bytes + delta
	if held < 0 {
		panic(fmt.Sprintf("mem: holder %q driven to %d bytes", g.holders[h].Name, held))
	}
	g.holders[h].Bytes = held
}

// Held returns one holder's current reservation.
func (g *Governor) Held(h HolderID) int64 { return g.holders[h].Bytes }

// Holdings snapshots every non-zero holding, largest first (ties in
// registration order) — the spill-priority view the planner reads.
func (g *Governor) Holdings() []Holding {
	out := make([]Holding, 0, len(g.holders))
	for _, h := range g.holders {
		if h.Bytes > 0 {
			out = append(out, h)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Bytes > out[j].Bytes })
	return out
}

// HeldTotal returns the sum of all holdings.
func (g *Governor) HeldTotal() int64 {
	var total int64
	for _, h := range g.holders {
		total += h.Bytes
	}
	return total
}

// ResidentBytes returns the grant bytes currently backing resident temp
// pages (spillable on demand).
func (g *Governor) ResidentBytes() int64 { return g.residentBytes }

// SpilledPages returns how many resident pages were evicted under pressure.
func (g *Governor) SpilledPages() int64 { return g.spilledPages }

// reservePage claims one page of grant for a resident temp page. Residency
// is opportunistic: it only uses grant that is otherwise free, is capped at
// a quarter of the total grant so hash-table builds — the grant's primary
// tenants — are never crowded out, and never evicts other resident pages
// (that would be zero-sum churn: spill one page to defer another's write).
// After WriteThrough it admits nothing. False writes the page through.
func (g *Governor) reservePage(t *Temp, bytes int64) bool {
	if g.writeThrough || g.residentBytes+bytes > g.mgr.Total()/4 {
		return false
	}
	if !g.mgr.Reserve(bytes) {
		return false
	}
	if !t.inSpillList {
		t.inSpillList = true
		g.resident = append(g.resident, t)
	}
	g.residentBytes += bytes
	return true
}

// WriteThrough makes every page written from now on go straight to disk.
// Pages already resident stay until they are read, spilled or dropped.
func (g *Governor) WriteThrough() { g.writeThrough = true }

// releaseResident returns resident-page bytes to the grant (page fully
// consumed by its reader, or the store reclaimed).
func (g *Governor) releaseResident(bytes int64) {
	g.residentBytes -= bytes
	g.mgr.Release(bytes)
}

// FreeUp spills resident temp pages until at least need bytes of grant are
// available or nothing spillable remains, returning the bytes freed. Spill
// priority is largest resident temp first (the cheapest way to release the
// most memory per eviction decision, ties toward the oldest temp), and
// within a temp oldest pages first — the prefix a reader needs last is the
// recently produced hot suffix, which stays resident.
func (g *Governor) FreeUp(need int64) int64 {
	var freed int64
	for g.mgr.Available() < need {
		var best *Temp
		live := g.resident[:0]
		for _, t := range g.resident {
			if t.resBytes == 0 {
				t.inSpillList = false
				continue // fully consumed or spilled: compact away
			}
			live = append(live, t)
			if best == nil || t.resBytes > best.resBytes {
				best = t
			}
		}
		g.resident = live
		if best == nil {
			break
		}
		n := best.spillOldestPage()
		g.residentBytes -= n
		g.mgr.Release(n)
		g.spilledPages++
		freed += n
	}
	return freed
}
