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

// compileColPush builds the pushdown descriptor of one chain's scan; its
// live columns are the plan's, so it allocates nothing.
func compileColPush(c *plan.Chain) colPush {
	p := colPush{keep: c.LiveAt, predIdx: -1}
	if scan := c.Scan; scan.Pred != nil {
		p.predIdx = scan.Schema.MustIndexOf(scan.Pred.Col)
		p.predLess = scan.Pred.Less
	}
	return p
}
