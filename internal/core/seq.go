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

// appendIteratorChains appends the chains of rts to order in the classic
// iterator-model order (open/next/close, §2.3), query after query.
func appendIteratorChains(order []chainRef, rts []*exec.Runtime) []chainRef {
	for _, rt := range rts {
		for _, c := range exec.IteratorOrder(rt.Dec) {
			order = append(order, chainRef{rt: rt, chain: c})
		}
	}
	return order
}

// uptake counts the runtimes a built-in policy has taken up from
// State.Runtimes. Every built-in calls fresh at the top of Plan, so the
// queries present at construction join at the first planning point and a
// query attached mid-run (Engine.Attach) joins at the next one.
type uptake struct{ seen int }

// fresh returns the runtimes attached since the last call.
func (u *uptake) fresh(st *State) []*exec.Runtime {
	rts := st.Runtimes()[u.seen:]
	u.seen += len(rts)
	return rts
}

// chainCursor drains pipeline chains strictly one after another in iterator
// order, one single-fragment plan at a time: SEQ's whole execution and MA's
// phase 2. Chains of a query already complete (cancelled) are skipped; the
// chains of a query attached mid-run queue behind every earlier one.
type chainCursor struct {
	uptake
	order []chainRef
	idx   int            // next chain to open
	cur   *exec.Fragment // chain being drained
	// sp backs every plan's Frags (see SchedulingPlan.Frags).
	sp [1]*exec.Fragment
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
	c.sp[0] = c.cur
	return SchedulingPlan{Frags: c.sp[:]}, nil
}

// seqPolicy is the paper's SEQ baseline as a scheduling policy: the classic
// iterator model drains pipeline chains strictly one after another, the
// engine stalling whenever the current chain's wrapper has not delivered.
// Every plan is a single fragment; starvation uses the executor's default
// silent stall (no timeout, no rate observation — the static engine never
// reacts to delivery problems).
type seqPolicy struct{ chainCursor }

// newSeqPolicy builds the static iterator-model policy; registry name "SEQ".
func newSeqPolicy(st *State) (Policy, error) { return &seqPolicy{}, nil }

func (p *seqPolicy) Name() string { return "SEQ" }

func (p *seqPolicy) Done(st *State) bool { return st.allQueriesDone() }

func (p *seqPolicy) Plan(st *State) (SchedulingPlan, error) {
	p.order = appendIteratorChains(p.order, p.fresh(st))
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
