package exec

import (
	"fmt"
	"time"

	"dqs/internal/mem"
	"dqs/internal/sim"
)

// Test-only strategy drivers. The production strategy engines live in
// package core as scheduling policies over the unified DQP executor (which
// this package cannot import without a cycle); the minimal drivers below
// keep the exec tests self-contained and double as independent reference
// implementations: the core strategy tests and the experiment goldens pin
// the policy engines against the exact behaviour encoded here.

// runSEQ drains the pipeline chains strictly one after another with the
// classic iterator model — the paper's SEQ baseline (core.NewSeqPolicy is
// the production engine).
func runSEQ(rt *Runtime) (Result, error) {
	for _, c := range IteratorOrder(rt.Dec) {
		f := rt.NewPCFragment(c)
		if err := drain(rt, f); err != nil {
			return Result{}, err
		}
	}
	return rt.FinishAt("SEQ", rt.Now()), nil
}

// drain runs a single fragment to completion, stalling on data gaps.
func drain(rt *Runtime, f *Fragment) error {
	for !f.Done() {
		n, overflow := f.ProcessBatch(rt.Cfg.BatchTuples)
		if overflow {
			return fmt.Errorf("%w (fragment %s)", ErrMemoryExceeded, f.Label)
		}
		if f.Done() {
			return nil
		}
		if n == 0 {
			at, ok := f.NextArrival()
			if !ok {
				return fmt.Errorf("exec: fragment %s starved with no future arrivals", f.Label)
			}
			rt.Clock.Stall(at)
		}
	}
	return nil
}

// runMA materializes every wrapper to local disk round-robin, then runs the
// plan with iterator-model scheduling over the local temps — the
// Materialize-All comparison strategy (core.NewMAPolicy is the production
// engine).
func runMA(rt *Runtime) (Result, error) {
	frags := make([]*Fragment, 0, len(rt.Dec.Chains))
	temps := make(map[string]*mem.Temp, len(rt.Dec.Chains))
	for _, c := range rt.Dec.Chains {
		f := rt.NewMFSync(c)
		frags = append(frags, f)
		temps[c.Scan.Rel.Name] = f.Temp
	}
	rt.Trace.Add(rt.Now(), sim.EvPhase, "MA phase 1: materialize %d relations", len(frags))
	for {
		progressed := false
		alldone := true
		for _, f := range frags {
			if f.Done() {
				continue
			}
			alldone = false
			if f.Runnable(rt.Now()) {
				if _, overflow := f.ProcessBatch(rt.Cfg.BatchTuples); overflow {
					return Result{}, fmt.Errorf("%w (fragment %s)", ErrMemoryExceeded, f.Label)
				}
				progressed = true
			}
		}
		if alldone {
			break
		}
		if !progressed {
			var next time.Duration
			found := false
			for _, f := range frags {
				if f.Done() {
					continue
				}
				if at, ok := f.NextArrival(); ok && (!found || at < next) {
					next, found = at, true
				}
			}
			if !found {
				return Result{}, fmt.Errorf("exec: MA phase 1 deadlocked with unfinished fragments")
			}
			rt.Clock.Stall(next)
		}
	}
	rt.Trace.Add(rt.Now(), sim.EvPhase, "MA phase 2: local execution")
	for _, c := range IteratorOrder(rt.Dec) {
		f := rt.NewCFSync(c, temps[c.Scan.Rel.Name])
		if err := drain(rt, f); err != nil {
			return Result{}, err
		}
	}
	return rt.FinishAt("MA", rt.Now()), nil
}
