package server

import (
	"fmt"
	"slices"

	"dqs/internal/core"
	"dqs/internal/exec"
)

// admittedQuery is one admitted query of a batch, attached to the batch's
// mediator.
type admittedQuery struct {
	idx  int // index into s.queries and the reports
	rt   *exec.Runtime
	done bool
}

// runBatch is the server's driver: it executes the submitted queries on
// one mediator — one clock, one memory grant (per-query holder attribution,
// globally arbitrated spills), shared plan caches, optionally shared
// physical wrapper streams. Queries are admitted at planning points of the
// single engine — the first admission batch constructs it, later arrivals
// attach mid-run and join the plan at its next planning point — and all
// admitted queries' fragments compete in one scheduling plan, biased by the
// configured fairness. With every query arriving at time zero and no cap it
// is core.RunStrategy step for step. Each query completes at its runtime's
// completion instant.
func (s *Server) runBatch() ([]Report, Stats, error) {
	med, err := exec.NewMediator(s.cfg.Exec)
	if err != nil {
		return nil, Stats{}, err
	}
	defer med.Reclaim()
	pending := s.arrivalOrder()
	reports := make([]Report, len(s.queries))
	stats := Stats{Queries: len(s.queries)}
	var admitted []*admittedQuery
	var eng *core.Engine
	activeCount := 0
	rrCursor := 0

	admitOne := func() error {
		at := med.Now()
		pos := s.pickAdmission(pending, at)
		qi := pending[pos]
		pending = slices.Delete(pending, pos, pos+1)
		q := &s.queries[qi]
		rt, err := med.AddQuery(q.Label, q.Workload.Root, q.Workload.Dataset, q.Deliveries)
		if err != nil {
			return q.wrap(err)
		}
		if q.Sink != nil {
			rt.SetSink(q.Sink)
		}
		if eng != nil {
			if err := eng.Attach(rt); err != nil {
				return q.wrap(err)
			}
		}
		reports[qi] = Report{
			Label:         q.Label,
			ArrivedAt:     q.ArriveAt,
			AdmittedAt:    at,
			AdmissionWait: at - q.ArriveAt,
		}
		stats.TotalAdmissionWait += at - q.ArriveAt
		admitted = append(admitted, &admittedQuery{idx: qi, rt: rt})
		activeCount++
		if activeCount > stats.PeakActive {
			stats.PeakActive = activeCount
		}
		return nil
	}

	for {
		// Admit every arrived waiter the cap allows; the engine picks the
		// new chains up at its next planning point.
		for len(pending) > 0 && activeCount < s.cfg.cap() &&
			s.queries[pending[0]].ArriveAt <= med.Now() {
			if err := admitOne(); err != nil {
				return nil, stats, err
			}
		}
		if queued := s.countArrived(pending, med.Now()); queued > stats.PeakQueued {
			stats.PeakQueued = queued
		}
		if activeCount == 0 {
			if len(pending) == 0 {
				break
			}
			// Idle server: advance the shared clock to the next arrival.
			med.Clock.Stall(s.queries[pending[0]].ArriveAt)
			continue
		}
		if eng == nil {
			rts := make([]*exec.Runtime, len(admitted))
			for i, a := range admitted {
				rts[i] = a.rt
			}
			eng, err = core.NewStrategyEngine(med, rts, s.cfg.strategy())
			if err != nil {
				return nil, stats, err
			}
		}
		eng.Favor(s.favoredRuntime(admitted, &rrCursor))
		for _, a := range admitted {
			q := &s.queries[a.idx]
			if a.done || q.Timeout <= 0 || reports[a.idx].Cancelled {
				continue
			}
			if med.Now()-reports[a.idx].AdmittedAt >= q.Timeout {
				if err := eng.CancelQuery(a.rt); err != nil {
					return nil, stats, q.wrap(err)
				}
				reports[a.idx].Cancelled = true
				stats.Cancelled++
			}
		}
		ok, err := eng.Step()
		if err != nil {
			return nil, stats, err
		}
		if s.probe != nil {
			s.probe(med)
		}
		for _, a := range admitted {
			if a.done {
				continue
			}
			at, fin := a.rt.CompletedAt()
			if !fin && !ok {
				// A user-registered policy reported the work finished before
				// this runtime completed: the query finishes at the engine's
				// final clock reading (Engine.Finalize's rule).
				at, fin = med.Now(), true
			}
			if fin {
				a.done = true
				activeCount--
				reports[a.idx].CompletedAt = at
				if at > stats.Makespan {
					stats.Makespan = at
				}
			}
		}
	}
	if eng == nil {
		return nil, stats, fmt.Errorf("server: no queries admitted")
	}
	for i, res := range eng.Finalize() {
		reports[admitted[i].idx].Result = res
	}
	stats.SharedStreams, stats.StreamTaps = med.SharedStreamCount()
	return reports, stats, nil
}

// favoredRuntime computes the query the next planning point should favor
// under the configured fairness (nil for the pure critical-degree order).
func (s *Server) favoredRuntime(admitted []*admittedQuery, rrCursor *int) *exec.Runtime {
	if s.cfg.Fairness == FairGlobal {
		return nil
	}
	unfinished := make([]*admittedQuery, 0, len(admitted))
	for _, a := range admitted {
		if !a.done {
			unfinished = append(unfinished, a)
		}
	}
	if len(unfinished) == 0 {
		return nil
	}
	switch s.cfg.Fairness {
	case FairRoundRobin:
		a := unfinished[*rrCursor%len(unfinished)]
		*rrCursor++
		return a.rt
	case FairWeightedByWait:
		// The query that has waited longest since arrival (earliest
		// ArriveAt; admission order breaks ties).
		best := unfinished[0]
		for _, a := range unfinished[1:] {
			if s.queries[a.idx].ArriveAt < s.queries[best.idx].ArriveAt {
				best = a
			}
		}
		return best.rt
	}
	return nil
}
