package core

import (
	"fmt"

	"dqs/internal/exec"
	"dqs/internal/plan"
)

// chainRef is one pipeline chain together with the runtime that owns it —
// the unit the static policies iterate over. With several attached queries
// the static policies simply concatenate the queries' chain orders.
type chainRef struct {
	rt    *exec.Runtime
	chain *plan.Chain
}

// iteratorChains lists the chains of every attached query in the classic
// iterator-model order (open/next/close, §2.3), query after query.
func iteratorChains(st *State) []chainRef {
	var order []chainRef
	for _, rt := range st.Runtimes() {
		for _, c := range exec.IteratorOrder(rt.Dec) {
			order = append(order, chainRef{rt: rt, chain: c})
		}
	}
	return order
}

// chainCursor drains pipeline chains strictly one after another in iterator
// order, one single-fragment plan at a time: SEQ's whole execution and MA's
// phase 2. Chains of a query already complete (cancelled) are skipped.
type chainCursor struct {
	order []chainRef
	idx   int            // next chain to open
	cur   *exec.Fragment // chain being drained
}

// plan returns the current chain's fragment, opening the next chain with
// open once the current one has finished.
func (c *chainCursor) plan(st *State, policy string, open func(chainRef) *exec.Fragment) (SchedulingPlan, error) {
	for c.cur == nil || c.cur.Done() {
		if c.idx >= len(c.order) {
			return SchedulingPlan{}, fmt.Errorf("core: %s planned past the last chain", policy)
		}
		next := c.order[c.idx]
		c.idx++
		if !st.queryDone(next.rt) {
			c.cur = open(next)
		}
	}
	return SchedulingPlan{Frags: []*exec.Fragment{c.cur}}, nil
}

// seqPolicy is the paper's SEQ baseline as a scheduling policy: the classic
// iterator model drains pipeline chains strictly one after another, the
// engine stalling whenever the current chain's wrapper has not delivered.
// Every plan is a single fragment; starvation uses the executor's default
// silent stall (no timeout, no rate observation — the static engine never
// reacts to delivery problems).
type seqPolicy struct{ chainCursor }

// NewSeqPolicy builds the static iterator-model policy; registry name "SEQ".
func NewSeqPolicy(st *State) (Policy, error) {
	return &seqPolicy{chainCursor{order: iteratorChains(st)}}, nil
}

func (p *seqPolicy) Name() string { return "SEQ" }

func (p *seqPolicy) Done(st *State) bool { return st.allQueriesDone() }

func (p *seqPolicy) Plan(st *State) (SchedulingPlan, error) {
	return p.plan(st, "SEQ", func(c chainRef) *exec.Fragment { return c.rt.NewPCFragment(c.chain) })
}

func (p *seqPolicy) OnEvent(st *State, ev Event) error {
	if ev.Kind == EventOverflow {
		// The static strategies cannot adapt to memory overflow; the paper's
		// experiments assume sufficient memory for them.
		return fmt.Errorf("%w (fragment %s)", exec.ErrMemoryExceeded, ev.Frag.Label)
	}
	return nil
}
