package core

import (
	"time"

	"dqs/internal/exec"
	"dqs/internal/plan"
)

// CriticalDegree computes the paper's §4.3 metric for a chain executed as a
// plain PC:
//
//	critical(p) = n_p · (w_p − c_p)
//
// where n_p is the number of tuples still to retrieve from p's wrapper, w_p
// the (estimated) mean waiting time between arrivals, and c_p the mediator's
// per-tuple processing time. It is the total CPU idle time p would cause if
// executed with nothing scheduled concurrently; a positive value makes p
// critical.
func CriticalDegree(rt *exec.Runtime, c *plan.Chain, n int, w time.Duration) time.Duration {
	term := exec.TermOutput
	if c.BuildsFor != nil {
		term = exec.TermBuild
	}
	cp := rt.PerTupleCost(c, 0, len(c.Joins), true, term)
	return time.Duration(n) * (w - cp)
}

// fragmentPriority computes the critical degree of an arbitrary fragment
// from its remaining tuples: wrapper-fed fragments use the CM's
// waiting-time estimate; temp-fed ones use the per-tuple disk pace (their
// delivery is the local disk).
func fragmentPriority(rt *exec.Runtime, f *exec.Fragment) time.Duration {
	var w time.Duration
	if f.QueueInput {
		w = rt.Wait(f.Chain)
	} else {
		w = rt.TupleIOTime()
	}
	cp := rt.PerTupleCost(f.Chain, f.FromStep, f.ToStep, f.QueueInput, f.Term)
	return time.Duration(f.Remaining()) * (w - cp)
}

// BMI computes the benefit materialization indicator of §4.4:
//
//	bmi(p) = w_p / (2 · IO_p)
//
// w_p is the waiting time of the chain's wrapper and IO_p the amortized
// per-tuple time to write and later read back the materialized stream. High
// bmi means the wrapper is so slow that spilling its tuples costs nothing
// relative to the waiting it hides.
func BMI(rt *exec.Runtime, c *plan.Chain) float64 {
	w := rt.Wait(c)
	io := rt.TupleIOTime()
	if io <= 0 {
		return 0
	}
	return w.Seconds() / (2 * io.Seconds())
}
