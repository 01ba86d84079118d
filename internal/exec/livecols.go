package exec

import (
	"dqs/internal/plan"
)

// colPush is the compiled pushdown of one scanned relation: which full-schema
// columns are live on the wire (in queue column order) and the wrapper-side
// selection predicate, if any.
type colPush struct {
	keep     []int // full-schema indices of live columns, ascending
	predIdx  int   // full-schema predicate column, -1 for none
	predLess int64
}

// livePositions returns where each column of n.Live sits in n.Schema,
// ascending: the columns a scan's wrapper projects onto the wire, or the
// positions a Sink's full-width output row takes the live values at.
func livePositions(n *plan.Node) []int {
	at := make([]int, n.Live.Width())
	for i, c := range n.Live.Cols {
		at[i] = n.Schema.MustIndexOf(c)
	}
	return at
}

// compileColPush builds the pushdown descriptor of one chain's scan.
func compileColPush(scan *plan.Node) colPush {
	p := colPush{keep: livePositions(scan), predIdx: -1}
	if scan.Pred != nil {
		p.predIdx = scan.Schema.MustIndexOf(scan.Pred.Col)
		p.predLess = scan.Pred.Less
	}
	return p
}
