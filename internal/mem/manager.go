// Package mem provides the mediator's query-memory manager and the
// temporary-relation store used by materialization fragments and the
// materialize-all baseline. Memory accounting follows the paper's
// abstraction level: a hash table or temp page of n tuples occupies n times
// the accounting tuple size (Table 1: 40 bytes), however few columns it
// stores. A temp keeps every column of its schema (the engine gives it a
// plan node's live columns), column-major per page, on the simulated local
// disk, except the pages the Manager keeps resident.
package mem

import "fmt"

// HolderID names one registered reservation holder (one hash-table build,
// one DPHJ join network, ...) inside a Manager. IDs are dense slice indices,
// so per-tuple accounting on the build hot path is a bounds check and an
// add — no map lookup.
type HolderID int

// holder is one registered reservation holder. owner groups holders
// belonging to one query of a multi-query service (empty for a single
// query).
type holder struct {
	name  string
	owner string
	bytes int64
}

// Manager is the one ledger of a query execution's memory grant. The total
// grant is fixed for the duration of the query (paper §3.3, assumption
// (ii)). Every reserved byte is either held by a named holder (Reserve/
// Release) or backs a resident page of a temp relation (see Temp), so
// Used() == HeldTotal() + ResidentBytes() at every step. Under pressure the
// Manager frees grant by spilling resident pages — largest resident temp
// first, oldest pages first — instead of forcing the planner to degrade
// another chain.
type Manager struct {
	total int64
	used  int64
	peak  int64

	holders []holder
	// resident lists temps currently holding resident (memory-backed) pages,
	// in registration order; entries whose resident bytes reach zero are
	// compacted away lazily during spill scans.
	resident      []*Temp
	residentBytes int64
	// writeThrough, once set, admits no more resident pages: every page
	// written afterwards goes straight to disk.
	writeThrough bool
}

// NewManager creates a manager with the given grant in bytes.
func NewManager(totalBytes int64) (*Manager, error) {
	if totalBytes <= 0 {
		return nil, fmt.Errorf("mem: grant must be positive, got %d", totalBytes)
	}
	return &Manager{total: totalBytes}, nil
}

// Reset returns the manager to the state NewManager(totalBytes) builds,
// keeping its holder and resident storage, so a pooled mediator reuses
// them. The grant must be positive, as NewManager requires.
func (m *Manager) Reset(totalBytes int64) {
	clear(m.holders)
	clear(m.resident)
	*m = Manager{total: totalBytes, holders: m.holders[:0], resident: m.resident[:0]}
}

// Governor is the Manager under its old name. It stays only because bench/
// names it — remove with the next [benchmark] PR.
type Governor = Manager

// NewGovernor returns m. It stays only because bench/ calls it — remove
// with the next [benchmark] PR.
func NewGovernor(m *Manager) *Governor { return m }

// Total returns the query's memory grant.
func (m *Manager) Total() int64 { return m.total }

// Used returns the currently reserved bytes.
func (m *Manager) Used() int64 { return m.used }

// Available returns the unreserved bytes.
func (m *Manager) Available() int64 { return m.total - m.used }

// Peak returns the high-water mark of reserved bytes.
func (m *Manager) Peak() int64 { return m.peak }

// Bind registers a named reservation holder attributed to an owning query
// and returns its ID. Owner attribution lets a multi-query service read each
// query's share of the global ledger (HoldingsByOwner) while spill and split
// decisions keep ranking holders globally.
func (m *Manager) Bind(owner, name string) HolderID {
	m.holders = append(m.holders, holder{name: name, owner: owner})
	return HolderID(len(m.holders) - 1)
}

// claim takes n bytes of grant if they fit.
func (m *Manager) claim(n int64) bool {
	if n < 0 {
		panic(fmt.Sprintf("mem: negative reservation %d", n))
	}
	if m.used+n > m.total {
		return false
	}
	m.used += n
	if m.used > m.peak {
		m.peak = m.used
	}
	return true
}

// Reserve claims n bytes for holder h, reporting false (and reserving
// nothing) when the grant would be exceeded. Bytes that do not fit first
// spill resident materialization pages — evicting an already-durable-on-
// demand prefix is always cheaper than overflowing a build — and are retried
// once if that freed anything. A false return is the overflow signal that
// suspends a non-M-schedulable chain (paper §4.2).
func (m *Manager) Reserve(h HolderID, n int64) bool {
	if !m.claim(n) && (m.FreeUp(n) == 0 || !m.claim(n)) {
		return false
	}
	m.holders[h].bytes += n
	return true
}

// Release returns n of holder h's bytes to the grant. Releasing a negative
// amount or more than h holds panics: it always indicates an accounting bug.
func (m *Manager) Release(h HolderID, n int64) {
	hd := &m.holders[h]
	if n < 0 || n > hd.bytes {
		panic(fmt.Sprintf("mem: bad release of %d bytes from holder %d (%s of %q) holding %d", n, h, hd.name, hd.owner, hd.bytes))
	}
	hd.bytes -= n
	m.used -= n
}

// Held returns one holder's current reservation.
func (m *Manager) Held(h HolderID) int64 { return m.holders[h].bytes }

// HeldTotal returns the sum of all holdings.
func (m *Manager) HeldTotal() int64 {
	var total int64
	for _, h := range m.holders {
		total += h.bytes
	}
	return total
}

// HoldingsByOwner returns every owner's total held bytes. Owners whose
// holdings are all zero are included while registered — the per-query view
// must account for every query the ledger knows, held or not. By
// construction the values sum to HeldTotal.
func (m *Manager) HoldingsByOwner() map[string]int64 {
	out := make(map[string]int64)
	for _, h := range m.holders {
		out[h.owner] += h.bytes
	}
	return out
}

// ResidentBytes returns the grant bytes currently backing resident temp
// pages (spillable on demand).
func (m *Manager) ResidentBytes() int64 { return m.residentBytes }

// reservePage claims one page of grant for a resident temp page. Residency
// is opportunistic: it only uses grant that is otherwise free, is capped at
// a quarter of the total grant so hash-table builds — the grant's primary
// tenants — are never crowded out, and never evicts other resident pages
// (that would be zero-sum churn: spill one page to defer another's write).
// After WriteThrough it admits nothing. False writes the page through.
func (m *Manager) reservePage(t *Temp, bytes int64) bool {
	if m.writeThrough || m.residentBytes+bytes > m.total/4 {
		return false
	}
	if !m.claim(bytes) {
		return false
	}
	if !t.inSpillList {
		t.inSpillList = true
		m.resident = append(m.resident, t)
	}
	m.residentBytes += bytes
	return true
}

// WriteThrough makes every page written from now on go straight to disk.
// Pages already resident stay until they are read, spilled or dropped.
func (m *Manager) WriteThrough() { m.writeThrough = true }

// releaseResident returns resident-page bytes to the grant (page fully
// consumed by its reader, spilled, or the store reclaimed).
func (m *Manager) releaseResident(bytes int64) {
	if bytes > m.residentBytes {
		panic(fmt.Sprintf("mem: bad resident release %d with %d resident", bytes, m.residentBytes))
	}
	m.residentBytes -= bytes
	m.used -= bytes
}

// FreeUp spills resident temp pages until at least need bytes of grant are
// available or nothing spillable remains, returning the bytes freed. Spill
// priority is largest resident temp first (the cheapest way to release the
// most memory per eviction decision, ties toward the oldest temp), and
// within a temp oldest pages first — the prefix a reader needs last is the
// recently produced hot suffix, which stays resident.
func (m *Manager) FreeUp(need int64) int64 {
	var freed int64
	for m.Available() < need {
		var best *Temp
		live := m.resident[:0]
		for _, t := range m.resident {
			if t.resBytes == 0 {
				t.inSpillList = false
				continue // fully consumed or spilled: compact away
			}
			live = append(live, t)
			if best == nil || t.resBytes > best.resBytes {
				best = t
			}
		}
		m.resident = live
		if best == nil {
			break
		}
		n := best.spillOldestPage()
		m.releaseResident(n)
		freed += n
	}
	return freed
}
