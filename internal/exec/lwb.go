package exec

import "time"

// LWB computes the paper's analytic lower bound on response time (§5.1.2):
//
//	LWB(Q) = max( Σ_p n_p·c_p , max_p n_p·w_p )
//
// — the mediator must at least do all per-tuple CPU work, and must at least
// wait for the slowest wrapper's complete delivery. No strategy can beat it;
// it calibrates how close a strategy comes to optimal overlap.
func LWB(rt *Runtime) time.Duration {
	var cpu time.Duration
	var maxRetrieval time.Duration
	for _, c := range rt.Dec.Chains {
		cp := rt.PerTupleCost(c, 0, len(c.Joins), true, chainTerm(c))
		cpu += time.Duration(int64(c.Scan.Rel.Cardinality)) * cp
		if r := rt.Source(c.Scan.Rel.Name).ExpectedRetrieval(); r > maxRetrieval {
			maxRetrieval = r
		}
	}
	if cpu > maxRetrieval {
		return cpu
	}
	return maxRetrieval
}
