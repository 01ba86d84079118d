package exec

import (
	"sort"

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

// liveColumns returns the full-schema indices of the columns of one scanned
// base relation the mediator actually reads: every column the plan references
// as a build or probe key at any join depth (composite-schema key refs name
// their originating base relation) plus the scan's pushed-down predicate
// column. Everything else is projected away by the columnar wrapper. A
// wrapper chunk gathers each passing slot's live columns into a reused row
// of full scan width and never writes its dead positions, so every tuple a
// fragment builds, spills or emits reads zero there: no operator reads them
// — result and materialization accounting count rows, and probes touch only
// key columns — and a Sink sees zeros.
func liveColumns(root *plan.Node, scan *plan.Node) []int {
	schema := scan.Schema
	rel := scan.Rel.Name
	seen := make(map[int]bool)
	mark := func(key relation.ColRef) {
		if key.Rel != rel {
			return
		}
		if i := schema.IndexOf(key); i >= 0 {
			seen[i] = true
		}
	}
	for _, j := range plan.Joins(root) {
		mark(j.BuildKey)
		mark(j.ProbeKey)
	}
	if scan.Pred != nil {
		seen[schema.MustIndexOf(scan.Pred.Col)] = true
	}
	keep := make([]int, 0, len(seen))
	for i := range seen {
		keep = append(keep, i)
	}
	sort.Ints(keep)
	return keep
}

// compileColPush builds the pushdown descriptor of one chain's scan.
func compileColPush(root *plan.Node, scan *plan.Node) colPush {
	p := colPush{keep: liveColumns(root, scan), predIdx: -1}
	if scan.Pred != nil {
		p.predIdx = scan.Schema.MustIndexOf(scan.Pred.Col)
		p.predLess = scan.Pred.Less
	}
	return p
}
