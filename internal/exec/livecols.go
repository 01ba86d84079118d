package exec

import (
	"slices"

	"dqs/internal/plan"
	"dqs/internal/relation"
)

// colPush is the compiled pushdown of one scanned relation: which full-schema
// columns are live on the wire (in queue column order) and the wrapper-side
// selection predicate, if any.
type colPush struct {
	keep     []int // full-schema indices of live columns, ascending
	predIdx  int   // full-schema predicate column, -1 for none
	predLess int64
}

// liveRefs returns the columns the mediator reads of a plan: every join's
// build and probe key (composite-schema key refs name their originating
// base relation) and every scan's pushed-down predicate column. Everything
// else is projected away by the columnar wrapper and never stored in a temp.
func liveRefs(root *plan.Node) []relation.ColRef {
	var refs []relation.ColRef
	plan.Walk(root, func(n *plan.Node) error { //nolint:errcheck // fn never fails
		switch {
		case n.Kind == plan.KindHashJoin:
			refs = append(refs, n.BuildKey, n.ProbeKey)
		case n.Pred != nil:
			refs = append(refs, n.Pred.Col)
		}
		return nil
	})
	return refs
}

// liveColumns returns the positions, ascending, of the columns of schema —
// a scan's or any chain step's — that carry one of the live refs. A chunk
// gathers each passing slot's live columns into a reused row of full schema
// width and never writes its dead positions, so every tuple a fragment
// builds, spills or emits reads zero there: no operator reads them — result
// and materialization accounting count rows, and probes touch only key
// columns — and a Sink sees zeros. The result is never nil: a temp given
// no live column stores none.
func liveColumns(schema *relation.Schema, refs []relation.ColRef) []int {
	keep := make([]int, 0, schema.Width())
	for i, c := range schema.Cols {
		if slices.Contains(refs, c) {
			keep = append(keep, i)
		}
	}
	return keep
}

// compileColPush builds the pushdown descriptor of one chain's scan.
func compileColPush(scan *plan.Node, refs []relation.ColRef) colPush {
	p := colPush{keep: liveColumns(scan.Schema, refs), predIdx: -1}
	if scan.Pred != nil {
		p.predIdx = scan.Schema.MustIndexOf(scan.Pred.Col)
		p.predLess = scan.Pred.Less
	}
	return p
}
