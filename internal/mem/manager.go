// Package mem provides the mediator's query-memory manager and the
// temporary-relation store used by materialization fragments and the
// materialize-all baseline. Memory accounting follows the paper's
// abstraction level: a hash table of n tuples occupies n times the
// accounting tuple size (Table 1: 40 bytes); temporary relations live on
// the simulated local disk, except the pages a Governor keeps resident
// under the grant.
package mem

import "fmt"

// Manager tracks the memory grant of one query execution. The total grant
// is fixed for the duration of the query (paper §3.3, assumption (ii)).
type Manager struct {
	total int64
	used  int64
	peak  int64
}

// NewManager creates a manager with the given grant in bytes.
func NewManager(totalBytes int64) (*Manager, error) {
	if totalBytes <= 0 {
		return nil, fmt.Errorf("mem: grant must be positive, got %d", totalBytes)
	}
	return &Manager{total: totalBytes}, nil
}

// Total returns the query's memory grant.
func (m *Manager) Total() int64 { return m.total }

// Used returns the currently reserved bytes.
func (m *Manager) Used() int64 { return m.used }

// Available returns the unreserved bytes.
func (m *Manager) Available() int64 { return m.total - m.used }

// Peak returns the high-water mark of reserved bytes.
func (m *Manager) Peak() int64 { return m.peak }

// Reserve claims n bytes, reporting false (and reserving nothing) when the
// grant would be exceeded. This is the overflow signal that suspends a
// non-M-schedulable chain (paper §4.2).
func (m *Manager) Reserve(n int64) bool {
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

// Release returns n bytes to the grant. Releasing more than is reserved
// panics: it always indicates an accounting bug.
func (m *Manager) Release(n int64) {
	if n < 0 || n > m.used {
		panic(fmt.Sprintf("mem: bad release %d with %d in use", n, m.used))
	}
	m.used -= n
}
