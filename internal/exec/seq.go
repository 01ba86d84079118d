package exec

import (
	"errors"

	"dqs/internal/plan"
)

// ErrMemoryExceeded reports that a static strategy ran out of query memory.
// Only the dynamic engine (package core) can adapt to memory overflow; the
// paper's experiments assume sufficient memory for the static strategies.
var ErrMemoryExceeded = errors.New("exec: query memory grant exceeded")

// IteratorOrder returns the order in which the classic iterator model
// (open/next/close, paper §2.3) drains the pipeline chains of a plan: a
// chain runs when the recursive open() of the plan reaches its terminal
// blocking edge, strictly one chain at a time.
func IteratorOrder(dec *plan.Decomposition) []*plan.Chain {
	var order []*plan.Chain
	var open func(n *plan.Node)
	open = func(n *plan.Node) {
		switch n.Kind {
		case plan.KindHashJoin:
			// open() builds the hash table: the builder chain below the
			// blocking edge is drained completely, then the probe side is
			// opened.
			open(n.Build)
			order = append(order, dec.BuilderOf(n))
			open(n.Probe)
		case plan.KindOutput:
			open(n.Child)
		}
	}
	open(dec.Root)
	// Finally the root chain streams results out.
	for _, c := range dec.Chains {
		if c.BuildsFor == nil {
			order = append(order, c)
			break
		}
	}
	return order
}

// The strategy engines themselves live in package core: every strategy —
// SEQ, MA, SCR, DSE, DPHJ — is a scheduling policy over the unified DQP
// executor (see core.Policy). This package keeps the strategy-neutral
// building blocks they share: fragments, the iterator order, the DPHJ join
// network, and the memory-exceeded sentinel.
