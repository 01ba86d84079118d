package core

import (
	"fmt"

	"dqs/internal/exec"
	"dqs/internal/sim"
)

// maPolicy is the Materialize-All strategy of the query-scrambling work the
// paper compares against (§5.1.2), as a scheduling policy. Phase 1 plans
// every query's materialization fragments at once in round-robin mode,
// draining all wrappers to local disk concurrently (overlapping all
// delivery delays, at full I/O cost); phase 2 then drains the plan with
// iterator-model scheduling over the local temps — single-fragment plans
// exactly like SEQ. A query attached during phase 2 sends the policy back to
// phase 1 for the newcomer's wrappers; the iterator then resumes where it
// stopped.
type maPolicy struct {
	mfs []*exec.Fragment

	phase2 bool
	chainCursor
}

// newMAPolicy builds the materialize-all policy; registry name "MA".
func newMAPolicy(st *State) (Policy, error) { return &maPolicy{}, nil }

func (p *maPolicy) Name() string { return "MA" }

func (p *maPolicy) Done(st *State) bool { return st.allQueriesDone() }

func (p *maPolicy) Plan(st *State) (SchedulingPlan, error) {
	med := st.Mediator()
	rts := p.fresh(st)
	p.order = appendIteratorChains(p.order, rts)
	// Phase 1: one materialization fragment per wrapper of every new query,
	// serviced round-robin as data arrives.
	n := len(p.mfs)
	for _, rt := range rts {
		if st.queryDone(rt) {
			continue
		}
		for _, c := range rt.Dec.Chains {
			p.mfs = append(p.mfs, rt.NewMFSync(c))
		}
	}
	if len(p.mfs) > n {
		p.phase2 = false
		med.Trace.Add(med.Now(), sim.EvPhase, "MA phase 1: materialize %d relations", len(p.mfs)-n)
	}
	if !p.phase2 {
		return SchedulingPlan{Frags: p.mfs, RoundRobin: true}, nil
	}
	// Phase 2: iterator-model execution over the local temps.
	return p.plan(st, "MA", func(c chainRef) *exec.Fragment {
		return c.rt.NewCFSync(c.chain, p.mfOf(c).Temp)
	})
}

// mfOf returns the materialization fragment of chain c. Queries of one plan
// share its chains, so the runtime tells their fragments apart.
func (p *maPolicy) mfOf(c chainRef) *exec.Fragment {
	for _, f := range p.mfs {
		if f.Runtime() == c.rt && f.Chain == c.chain {
			return f
		}
	}
	panic(fmt.Sprintf("core: MA has no materialization of %s for query %q", c.chain.Name, c.rt.Label))
}

func (p *maPolicy) OnEvent(st *State, ev Event) error {
	switch ev.Kind {
	case EventOverflow:
		return fmt.Errorf("%w (fragment %s)", exec.ErrMemoryExceeded, ev.Frag.Label)
	case EventSPDone:
		if !p.phase2 {
			for _, f := range p.mfs {
				if !f.Done() {
					// The round-robin phase ended with no future arrivals but
					// unfinished materializations: the workload cannot finish.
					return fmt.Errorf("core: MA phase 1 deadlocked with unfinished fragments")
				}
			}
			p.phase2 = true
			med := st.Mediator()
			med.Trace.Add(med.Now(), sim.EvPhase, "MA phase 2: local execution")
		}
	}
	return nil
}
