package exec

import (
	"fmt"
	"time"

	"dqs/internal/comm"
	"dqs/internal/sim"
)

// Result summarizes one query execution.
type Result struct {
	Strategy string
	// ResponseTime is the query's completion instant — the metric of every
	// figure in the paper: when its last chain finished, never before its
	// last result tuple, or when it was cancelled.
	ResponseTime time.Duration
	// BusyTime is mediator CPU (and synchronous-I/O wait) time.
	BusyTime time.Duration
	// IdleTime is time the query engine was stalled waiting for data.
	IdleTime time.Duration
	// OutputRows is the number of result tuples.
	OutputRows int64
	// Disk aggregates local-disk activity.
	Disk sim.DiskStats
	// PeakMemBytes is the high-water mark of the memory grant.
	PeakMemBytes int64
	// MaterializedTuples counts tuples spilled to temporary relations.
	MaterializedTuples int64
	// Replans, Degradations, Timeouts and MemRepairs count scheduler
	// activity: DSE planning points, degradations, DQP time-outs and memory
	// repairs. SCR counts its scrambling steps as replans; SEQ, MA and DPHJ
	// leave all four at zero. On a shared mediator they count the whole
	// mediator's activity, not this query's.
	Replans      int
	Degradations int
	Timeouts     int
	MemRepairs   int
	// MaxEstError is the worst estimate-vs-actual factor across this
	// query's completed hash-table builds — the execution statistics §3.1
	// says should flow back to the dynamic optimizer.
	MaxEstError float64
	// FirstTupleTime is the virtual time the first result tuple was
	// produced — the latency-to-first-answer metric streaming delivery
	// optimizes for. Zero when the query produced no output.
	FirstTupleTime time.Duration
	// TupleTimeline records the production time of result tuples number 1,
	// 2, 4, 8, ... (powers of two), sketching how the answer stream ramped
	// up between first tuple and completion. Empty when no output.
	TupleTimeline []time.Duration
	// DegradedFragments lists the fragments abandoned in partial-result
	// mode because their wrapper died with no replica; empty for complete
	// executions.
	DegradedFragments []string
	// PlanCacheHits and PlanCacheMisses count decomposition-cache lookups
	// made while attaching this run's queries (zero without Config.Plans).
	// Kept only because bench/ reads them — remove with the next [benchmark]
	// PR.
	PlanCacheHits   int
	PlanCacheMisses int
	// Work counts the mediator's loop work up to the snapshot. Equal
	// ignores it: eager and deferred production do different work for the
	// same result.
	Work Work
}

// Work counts the work of one mediator's scheduling loop: plain integers,
// each incremented on a path that already does the counted work, so that
// a change to the loop is weighed exactly rather than by a noisy host
// clock. The embedded comm.Work is the CM's and is read when a Result is
// built; the mediator's own Work leaves it zero.
type Work struct {
	Iterations     int64 // DQP loop iterations
	Stalls         int64 // iterations that stalled the clock to the next arrival
	EmptyAsks      int64 // the DQP's Runnable asks that found no input
	PlanningPoints int64 // policy Plan calls
	comm.Work
}

// Equal reports field-by-field equality, treating DegradedFragments and
// TupleTimeline as values (the struct is no longer ==-comparable since it
// carries slices).
func (r Result) Equal(o Result) bool {
	if len(r.DegradedFragments) != len(o.DegradedFragments) {
		return false
	}
	for i := range r.DegradedFragments {
		if r.DegradedFragments[i] != o.DegradedFragments[i] {
			return false
		}
	}
	if len(r.TupleTimeline) != len(o.TupleTimeline) {
		return false
	}
	for i := range r.TupleTimeline {
		if r.TupleTimeline[i] != o.TupleTimeline[i] {
			return false
		}
	}
	return r.Strategy == o.Strategy &&
		r.ResponseTime == o.ResponseTime &&
		r.BusyTime == o.BusyTime &&
		r.IdleTime == o.IdleTime &&
		r.OutputRows == o.OutputRows &&
		r.Disk == o.Disk &&
		r.PeakMemBytes == o.PeakMemBytes &&
		r.MaterializedTuples == o.MaterializedTuples &&
		r.Replans == o.Replans &&
		r.Degradations == o.Degradations &&
		r.Timeouts == o.Timeouts &&
		r.MemRepairs == o.MemRepairs &&
		r.MaxEstError == o.MaxEstError &&
		r.FirstTupleTime == o.FirstTupleTime &&
		r.PlanCacheHits == o.PlanCacheHits &&
		r.PlanCacheMisses == o.PlanCacheMisses
}

// TotalWork returns busy CPU time plus disk busy time: the "total work"
// metric the paper's §6 discusses as the price of response-time gains.
func (r Result) TotalWork() time.Duration {
	return r.BusyTime + r.Disk.BusyTime
}

// String renders a one-line summary.
func (r Result) String() string {
	s := fmt.Sprintf("%s: response=%.3fs busy=%.3fs idle=%.3fs out=%d io(r/w)=%d/%d mat=%d",
		r.Strategy, r.ResponseTime.Seconds(), r.BusyTime.Seconds(), r.IdleTime.Seconds(),
		r.OutputRows, r.Disk.Reads, r.Disk.Writes, r.MaterializedTuples)
	if len(r.DegradedFragments) > 0 {
		s += fmt.Sprintf(" degraded=%v", r.DegradedFragments)
	}
	return s
}

// FinishAt snapshots the runtime into a Result for the named strategy, with
// the given response time: each query of a shared mediator completes at its
// own instant while the mediator keeps running.
func (rt *Runtime) FinishAt(strategy string, response time.Duration) Result {
	m := rt.Med
	return Result{
		Strategy:           strategy,
		ResponseTime:       response,
		BusyTime:           rt.Clock.Busy(),
		IdleTime:           rt.Clock.Idle(),
		OutputRows:         rt.outputRows,
		Disk:               rt.Disk.Stats(),
		PeakMemBytes:       rt.Mem.Peak(),
		MaterializedTuples: rt.matTuples,
		Replans:            m.replans,
		Degradations:       m.degrades,
		Timeouts:           m.timeouts,
		MemRepairs:         m.memRepairs,
		MaxEstError:        rt.maxEstErrorFactor(),
		FirstTupleTime:     rt.firstOut,
		TupleTimeline:      rt.timeline(),
		DegradedFragments:  rt.degraded,
		PlanCacheHits:      m.planHits,
		PlanCacheMisses:    m.planMisses,
		Work:               m.work(),
	}
}

// work returns the mediator's loop counters with the CM's merged in.
func (m *Mediator) work() Work {
	w := *m.Work
	w.Work = m.CM.Work()
	return w
}
