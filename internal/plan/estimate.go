package plan

import (
	"fmt"

	"dqs/internal/relation"
)

// Stats carries the statistics the mediator's optimizer has about wrapper
// data: per-column value-domain sizes. With uniformly distributed columns
// (which the synthetic generator guarantees) the classical estimation
// formulas are exact in expectation, so optimizer estimates and runtime
// reality agree up to sampling noise — the paper's §5.1 setting, where the
// focus is delivery delays rather than estimation errors. Estimation errors
// can still be injected for robustness experiments via Skew.
type Stats struct {
	// Domains maps join/predicate columns to their value-domain size.
	Domains map[relation.ColRef]int64
	// Skew multiplies every join-output estimate, modelling systematic
	// optimizer mis-estimation (1 = exact expectations).
	Skew float64
}

// NewStats returns empty statistics with no skew.
func NewStats() *Stats {
	return &Stats{Domains: make(map[relation.ColRef]int64), Skew: 1}
}

// SetDomain records the domain size of one column.
func (s *Stats) SetDomain(ref relation.ColRef, domain int64) {
	s.Domains[ref] = domain
}

// domain returns the domain of ref, defaulting to fallback when unknown.
func (s *Stats) domain(ref relation.ColRef, fallback int64) int64 {
	if d, ok := s.Domains[ref]; ok && d > 0 {
		return d
	}
	return fallback
}

// Annotate fills in EstRows for every node of the plan. It must run before
// the scheduler uses memory or materialization-cost estimates.
func (s *Stats) Annotate(root *Node) error {
	skew := s.Skew
	if skew <= 0 {
		return fmt.Errorf("plan: non-positive estimation skew %v", skew)
	}
	return Walk(root, func(n *Node) error {
		switch n.Kind {
		case KindScan:
			rows := float64(n.Rel.Cardinality)
			if n.Pred != nil {
				d := s.domain(n.Pred.Col, int64(n.Rel.Cardinality))
				sel := float64(n.Pred.Less) / float64(d)
				if sel > 1 {
					sel = 1
				}
				if sel < 0 {
					sel = 0
				}
				rows *= sel
			}
			n.EstRows = rows
		case KindHashJoin:
			db := s.domain(n.BuildKey, int64(n.Build.EstRows)+1)
			dp := s.domain(n.ProbeKey, int64(n.Probe.EstRows)+1)
			d := db
			if dp > d {
				d = dp
			}
			if d < 1 {
				d = 1
			}
			n.EstRows = n.Build.EstRows * n.Probe.EstRows / float64(d) * skew
		case KindOutput:
			n.EstRows = n.Child.EstRows
		}
		return nil
	})
}
