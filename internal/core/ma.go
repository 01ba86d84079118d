package core

import (
	"fmt"

	"dqs/internal/exec"
	"dqs/internal/mem"
	"dqs/internal/sim"
)

// maPolicy is the Materialize-All strategy of the query-scrambling work the
// paper compares against (§5.1.2), as a scheduling policy. Phase 1 plans
// every query's materialization fragments at once in round-robin mode,
// draining all wrappers to local disk concurrently (overlapping all
// delivery delays, at full I/O cost); phase 2 then drains the plan with
// iterator-model scheduling over the local temps — single-fragment plans
// exactly like SEQ.
type maPolicy struct {
	mfs   []*exec.Fragment
	temps map[*exec.Runtime]map[string]*mem.Temp

	phase2 bool
	chainCursor
}

// NewMAPolicy builds the materialize-all policy; registry name "MA".
func NewMAPolicy(st *State) (Policy, error) {
	p := &maPolicy{
		temps:       make(map[*exec.Runtime]map[string]*mem.Temp),
		chainCursor: chainCursor{order: iteratorChains(st)},
	}
	return p, nil
}

func (p *maPolicy) Name() string { return "MA" }

func (p *maPolicy) Done(st *State) bool { return st.allQueriesDone() }

func (p *maPolicy) Plan(st *State) (SchedulingPlan, error) {
	med := st.Mediator()
	if !p.phase2 {
		// Phase 1: one materialization fragment per wrapper of every
		// attached query, serviced round-robin as data arrives.
		if p.mfs == nil {
			for _, rt := range st.Runtimes() {
				if st.queryDone(rt) {
					continue
				}
				ts := make(map[string]*mem.Temp, len(rt.Dec.Chains))
				for _, c := range rt.Dec.Chains {
					f := rt.NewMFSync(c)
					p.mfs = append(p.mfs, f)
					ts[c.Scan.Rel.Name] = f.Temp
				}
				p.temps[rt] = ts
			}
			med.Trace.Add(med.Now(), sim.EvPhase, "MA phase 1: materialize %d relations", len(p.mfs))
		}
		return SchedulingPlan{Frags: p.mfs, RoundRobin: true}, nil
	}
	// Phase 2: iterator-model execution over the local temps.
	return p.plan(st, "MA", func(c chainRef) *exec.Fragment {
		return c.rt.NewCFSync(c.chain, p.temps[c.rt][c.chain.Scan.Rel.Name])
	})
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
