package core

import (
	"fmt"
	"time"

	"dqs/internal/exec"
	"dqs/internal/plan"
	"dqs/internal/sim"
)

// dsePolicy is the paper's contribution expressed as a scheduling policy:
// the dynamic query scheduler (DQS, §4) plans fragments by critical degree
// with §4.4 degradation, and the memory-repair part of the dynamic QEP
// optimizer (DQO, §4.2) absorbs overflow events. Driving several runtimes
// makes it the multi-query engine of §6: all queries' fragments compete in
// one scheduling plan under the global critical-degree order.
type dsePolicy struct {
	uptake
	states []*chainState

	// sp and cands are the last planning point's plan and candidates, their
	// storage reused by the next (see SchedulingPlan.Frags).
	sp    []*exec.Fragment
	cands []cand

	// splitBudget bounds the memory-repair splits of one planning point.
	// Every split consumes at least one chain step for its head segment, so
	// a legitimate repair sequence can never need more than the total step
	// count (plus one degenerate top split per chain); exceeding the budget
	// means the repair loop is not converging.
	splitBudget int
}

// dqpTimeout is how long a DSE execution phase may be fully starved before
// the DQP returns a TimeOut interruption (§3.2).
const dqpTimeout = 10 * time.Second

// newDSEPolicy builds the paper's dynamic scheduling policy. It is the
// default entry of the policy registry under the name "DSE".
func newDSEPolicy(st *State) (Policy, error) {
	return &dsePolicy{}, nil
}

// addRuntimes registers the chains of the queries attached since the last
// planning point: they enter the global critical-degree competition there.
// A query's chain states, and their segments, come from one slab each.
func (p *dsePolicy) addRuntimes(st *State) {
	for _, rt := range p.fresh(st) {
		chains := rt.Dec.Chains
		n := 0
		for _, c := range chains {
			n += len(c.Joins) + 2
		}
		states, segs := make([]chainState, len(chains)), make([]segSpec, n)
		for i, c := range chains {
			cs := &states[i]
			n := len(c.Joins) + 2
			cs.rt, cs.chain = rt, c
			cs.segs = segs[:1:n]
			cs.segs[0] = segSpec{fromStep: 0, toStep: len(c.Joins)}
			segs = segs[n:]
			// The chains c blocks form a path: each probes the table the
			// previous one builds.
			for j := c.BuildsFor; j != nil; j = rt.Dec.ProberOf(j).BuildsFor {
				cs.descendants++
			}
			p.states = append(p.states, cs)
			p.splitBudget += n
		}
	}
}

// state returns the state of chain c of the query rt. The runtime is part of
// the key: queries submitted from one workload object through one
// decomposition cache share chain pointers.
func (p *dsePolicy) state(rt *exec.Runtime, c *plan.Chain) *chainState {
	for _, cs := range p.states {
		if cs.rt == rt && cs.chain == c {
			return cs
		}
	}
	return nil
}

// Attach does nothing: the next Plan takes the runtime up. It stays only
// because bench/'s timing policy attaches its producer shim through it —
// remove with the next [benchmark] PR.
func (p *dsePolicy) Attach(st *State, rt *exec.Runtime) error { return nil }

func (p *dsePolicy) Name() string { return "DSE" }

// Done reports whether every query has finished or been cancelled.
func (p *dsePolicy) Done(st *State) bool { return st.allQueriesDone() }

// Plan is one DQS planning phase: it computes the scheduling plan via
// schedule (§4.5), resolves empty plans (memory infeasibility), and
// snapshots the CM estimates the plan was built from.
func (p *dsePolicy) Plan(st *State) (SchedulingPlan, error) {
	med := st.Mediator()
	p.addRuntimes(st)
	sp, err := p.schedule(st)
	if err != nil {
		return SchedulingPlan{}, err
	}
	if len(sp) == 0 {
		for _, cs := range p.states {
			if cs.memSuspended {
				return SchedulingPlan{}, errInsufficientMemory(cs.chain.Name, med.Mem.Total())
			}
		}
		return SchedulingPlan{}, fmt.Errorf("core: no schedulable work but %s", st.pending())
	}
	med.CountReplan()
	if med.Trace.Enabled() { // the labels are built even when tracing is off
		med.Trace.Add(med.Now(), sim.EvSchedule, "SP = [%s]", spLabels(sp))
	}
	med.CM.SnapshotPlanned(med.Cfg.InitialWaitEstimate)
	return SchedulingPlan{Frags: sp, Timeout: dqpTimeout}, nil
}

// OnEvent absorbs the DQP interruption that ended the phase: completions
// advance chains past their finished segments, overflows invoke the DQO,
// timeouts wait out the delay, rate changes simply trigger replanning.
func (p *dsePolicy) OnEvent(st *State, ev Event) error {
	med := st.Mediator()
	switch ev.Kind {
	case EventEndOfQF, EventSPDone, EventSourceDown, EventSourceUp, EventFailover:
		// Fault transitions and recoveries end the phase like completions
		// do: abandoned fragments read as Done, failover brings fresh
		// arrivals — either way the next planning point sees current state.
		p.advanceFinished()
	case EventRateChange:
		// Replanning with the fresh estimates happens at the next planning
		// point.
	case EventTimeout:
		med.CountTimeout()
		// The full re-optimization of scrambling phase 2 is the DQO's job
		// in the paper; without a re-optimizer the engine waits out the
		// delay and replans.
		if !ev.HasNext {
			return fmt.Errorf("core: timeout with no future arrivals")
		}
		med.Clock.Stall(ev.Next)
	case EventOverflow:
		p.handleOverflow(ev.Frag)
		p.advanceFinished()
	}
	return nil
}

// advanceFinished moves every chain whose active fragment has completed to
// its next segment.
func (p *dsePolicy) advanceFinished() {
	for _, cs := range p.states {
		for {
			seg := cs.active()
			if seg == nil || seg.frag == nil || !seg.frag.Done() {
				break
			}
			cs.advance()
		}
	}
}
