package core

import (
	"fmt"
	"time"

	"dqs/internal/exec"
	"dqs/internal/sim"
)

// scrPolicy is phase-1 query scrambling (§1.2) as a scheduling policy: the
// classic iterator engine augmented with a timeout reaction. The plan is
// the iterator-order prefix of instantiated, unfinished chains up to the
// current one, in Sticky mode — the executor processes the current chain,
// resumes a suspended earlier chain the moment its data arrives (exactly
// the scrambling engine's resume rule: lowest index first, and everything
// above the resumed tree stays suspended). When the whole window starves
// for longer than scrambleTimeout, the EventStarved reaction fires a
// scrambling step: suspend the current tree (paying the switch overhead of
// saving its in-flight state) and activate another runnable,
// C-schedulable chain.
//
// The paper's two criticisms are both visible in this implementation: the
// timeout must fully elapse (idle) before any reaction, so repeated
// sub-timeout gaps (slow delivery) degrade SCR to SEQ; and a delayed
// *last* chain leaves nothing to scramble to (§1.2's "no more work to
// scramble"). A query attached mid-run appends its chains to the order.
type scrPolicy struct {
	uptake
	order []chainRef
	frags []*exec.Fragment // nil until the chain is C-schedulable
	// window backs every plan's Frags (see SchedulingPlan.Frags).
	window []*exec.Fragment

	cur       int // index in order of the chain the engine works on
	scrambles int
}

const (
	// scrambleTimeout is how long SCR idles on a starved operator before a
	// scrambling step fires.
	scrambleTimeout = 100 * time.Millisecond
	// scrambleSwitchInstr is the CPU overhead of one scrambling step: saving
	// the suspended tree's in-flight state (the materialization overhead of
	// [2]), which DSE's co-resident fragments never pay (§1.3).
	scrambleSwitchInstr = 500000
)

// newScramblePolicy builds the query-scrambling policy; registry name
// "SCR".
func newScramblePolicy(st *State) (Policy, error) { return &scrPolicy{cur: -1}, nil }

func (p *scrPolicy) Name() string { return "SCR" }

func (p *scrPolicy) Done(st *State) bool { return st.allQueriesDone() }

func (p *scrPolicy) Plan(st *State) (SchedulingPlan, error) {
	p.order = appendIteratorChains(p.order, p.fresh(st))
	p.frags = append(p.frags, make([]*exec.Fragment, len(p.order)-len(p.frags))...)
	// Instantiate fragments as chains become C-schedulable. Tables only
	// complete when a building fragment finishes, which always ends the
	// execution phase, so checking at planning points loses nothing.
	for i, c := range p.order {
		if p.frags[i] == nil && !st.queryDone(c.rt) && tablesComplete(c.rt, c.chain.Joins) {
			p.frags[i] = c.rt.NewPCFragment(c.chain)
		}
	}
	// The engine works on the earliest unfinished instantiated chain unless
	// a scrambling step moved it elsewhere.
	if p.cur < 0 || p.frags[p.cur] == nil || p.frags[p.cur].Done() {
		p.cur = -1
		for i := range p.order {
			if p.frags[i] != nil && !p.frags[i].Done() {
				p.cur = i
				break
			}
		}
		if p.cur < 0 {
			return SchedulingPlan{}, fmt.Errorf("core: scrambling found no schedulable chain")
		}
	}
	// The window: suspended earlier chains (resume candidates) and the
	// current chain. Chains the engine scrambled away from sit above cur
	// and stay suspended until cur finishes or another scrambling step.
	p.window = p.window[:0]
	for i := 0; i <= p.cur; i++ {
		if p.frags[i] != nil && !p.frags[i].Done() {
			p.window = append(p.window, p.frags[i])
		}
	}
	return SchedulingPlan{Frags: p.window, Sticky: true}, nil
}

// indexOf maps a fragment back to its chain-order index.
func (p *scrPolicy) indexOf(f *exec.Fragment) int {
	for i := range p.frags {
		if p.frags[i] == f {
			return i
		}
	}
	return -1
}

func (p *scrPolicy) OnEvent(st *State, ev Event) error {
	switch ev.Kind {
	case EventOverflow:
		return fmt.Errorf("%w (fragment %s)", exec.ErrMemoryExceeded, ev.Frag.Label)
	case EventEndOfQF, EventSPDone, EventStarved:
		// Re-sync cur with the executor: resuming an earlier chain moves the
		// engine's attention permanently down to it.
		if n := len(ev.Window); n > 0 {
			if i := p.indexOf(ev.Window[n-1]); i >= 0 {
				p.cur = i
			}
		}
		if ev.Kind == EventStarved {
			return p.starved(st, ev.Window)
		}
	}
	return nil
}

// starved is the scrambling reaction (§1.2): every chain of the window —
// the current one and all resume candidates — is out of data. It either
// waits, or scrambles by moving cur; the next planning point resumes from
// there.
func (p *scrPolicy) starved(st *State, window []*exec.Fragment) error {
	f := window[len(window)-1] // the chain the engine is working on
	arrival, ok := f.NextArrival()
	if !ok {
		// The current chain will never see data again (its wrapper is dead
		// or mid-disconnect with nothing buffered): scramble away without
		// waiting for the timeout — there is nothing to time out on. The
		// all-dead case is the mediator's fault layer's to resolve; it runs
		// before this reaction, so reaching here with no alternative and no
		// arrival anywhere is a real planning bug.
		if alt := p.alternative(st); alt >= 0 {
			p.scramble(st, f, alt, " (no future arrivals)")
			return nil
		}
		if next, ok := nextArrival(window); ok {
			st.StallUntil(next)
			return nil
		}
		return fmt.Errorf("core: fragment %s starved with no future arrivals", f.Label)
	}
	now := st.Now()
	if arrival-now <= scrambleTimeout {
		// Data returns before the timeout would fire: scrambling never
		// reacts, exactly like SEQ.
		st.StallUntil(arrival)
		return nil
	}
	// Timeout: the engine idled the full timeout before reacting.
	st.StallUntil(now + scrambleTimeout)
	if alt := p.alternative(st); alt >= 0 {
		p.scramble(st, f, alt, "")
		return nil
	}
	// Nothing to scramble to (the paper's "last accessed source" failure
	// case): wait out the delay.
	st.Mediator().Trace.Add(st.Now(), sim.EvTimeout, "scramble found no alternative to %s", f.Label)
	st.StallUntil(arrival)
	return nil
}

// alternative returns the order index of the first instantiated, unfinished
// chain other than cur that has data now, or -1.
func (p *scrPolicy) alternative(st *State) int {
	for i, f := range p.frags {
		if i != p.cur && f != nil && !f.Done() && f.Runnable(st.Now()) {
			return i
		}
	}
	return -1
}

// scramble is one scrambling step: suspend the current tree (paying the
// switch overhead) and activate chain alt.
func (p *scrPolicy) scramble(st *State, from *exec.Fragment, alt int, why string) {
	p.scrambles++
	st.CountReplan()
	st.ChargeInstructions(scrambleSwitchInstr)
	st.Mediator().Trace.Add(st.Now(), sim.EvSchedule, "scramble step %d: %s -> %s%s",
		p.scrambles, from.Label, p.frags[alt].Label, why)
	p.cur = alt
}
