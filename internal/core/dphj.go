package core

import (
	"fmt"

	"dqs/internal/exec"
)

// dphjPolicy is the operator-level reactive baseline of the paper's §1.1 —
// double-pipelined (symmetric) hash joins — as a scheduling policy. Every
// attached query's plan is compiled into a symmetric join network (see
// exec.Runtime.NewDPHJFeeds) fed by one wrapper-fed fragment per relation;
// the single plan services every feed round-robin as its data arrives, and
// the network turns each arrival into results at once. There is nothing to
// decide: no priorities, no degradation, no memory adaptation — an overflow
// is fatal. A query attached mid-run joins at the next planning point, once
// the running feeds have finished.
type dphjPolicy struct {
	uptake
	feeds []*exec.Fragment
}

// newDPHJPolicy builds the double-pipelined hash-join policy; registry name
// "DPHJ".
func newDPHJPolicy(st *State) (Policy, error) { return &dphjPolicy{}, nil }

func (p *dphjPolicy) Name() string { return "DPHJ" }

// Done reports whether every query has finished or been cancelled.
func (p *dphjPolicy) Done(st *State) bool { return st.allQueriesDone() }

func (p *dphjPolicy) Plan(st *State) (SchedulingPlan, error) {
	for _, rt := range p.fresh(st) {
		if st.queryDone(rt) {
			continue
		}
		p.feeds = append(p.feeds, rt.NewDPHJFeeds()...)
	}
	return SchedulingPlan{Frags: p.feeds, RoundRobin: true}, nil
}

func (p *dphjPolicy) OnEvent(st *State, ev Event) error {
	switch ev.Kind {
	case EventOverflow:
		return fmt.Errorf("%w (symmetric join network)", exec.ErrMemoryExceeded)
	case EventSPDone:
		for _, f := range p.feeds {
			if !f.Done() {
				return fmt.Errorf("core: DPHJ starved with no future arrivals")
			}
		}
	}
	return nil
}
