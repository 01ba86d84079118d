package core

import (
	"fmt"
	"sort"
	"time"

	"dqs/internal/exec"
	"dqs/internal/sim"
)

// cand is one schedulable fragment considered by a planning pass.
type cand struct {
	cs   *chainState
	frag *exec.Fragment
	prio time.Duration
}

// byPriority orders candidates by critical degree descending, breaking ties
// toward chains with more descendants, then by the precomputed per-chain
// label for determinism. A concrete sort.Interface keeps the per-planning-
// point sort off sort.Slice's reflection-based swapper — this runs at every
// planning point.
type byPriority struct {
	cands []cand
	// favored, when non-nil, sorts that query's candidates before every
	// other query's (cross-query fairness, see Engine.Favor); the order
	// among the favored query's own candidates — and among everyone else's
	// — is the normal priority order. The candidate set is untouched, so a
	// plan never empties, and nil is the global critical-degree order.
	favored *exec.Runtime
}

func (s byPriority) Len() int      { return len(s.cands) }
func (s byPriority) Swap(i, j int) { s.cands[i], s.cands[j] = s.cands[j], s.cands[i] }
func (s byPriority) Less(i, j int) bool {
	ci, cj := &s.cands[i], &s.cands[j]
	if s.favored != nil {
		fi, fj := ci.cs.rt == s.favored, cj.cs.rt == s.favored
		if fi != fj {
			return fi
		}
	}
	if ci.prio != cj.prio {
		return ci.prio > cj.prio
	}
	if di, dj := ci.cs.descendants, cj.cs.descendants; di != dj {
		return di > dj
	}
	return ci.cs.sortKey < cj.cs.sortKey
}

// schedule is one DQS planning phase (§4.5). It:
//
//  1. computes the set of schedulable fragments (C-schedulability from the
//     ancestor relation, input readiness for split segments) across every
//     attached query,
//  2. degrades critical, non-schedulable PCs whose bmi exceeds bmt into
//     MF + CF (§4.4) — the MF is then immediately schedulable,
//  3. orders the fragments by critical degree (§4.3), and
//  4. extracts the longest prefix that fits in the memory grant.
//
// When nothing fits, the DQO is asked for a memory-repair split of the most
// critical candidate and the pass is retried — iteratively, under a split
// budget, so a pathological plan (or wrong estimates driving the repair in
// circles) surfaces as a traced error instead of unbounded recursion.
//
// It returns the scheduling plan: fragments in strictly decreasing
// priority. An empty plan with work remaining is resolved by the DQO
// (optimistic scheduling) or reported as an error by the caller.
func (p *dsePolicy) schedule(st *State) ([]*exec.Fragment, error) {
	med := st.Mediator()
	splits := 0
	for {
		cands := p.candidates(st)

		// Priority order: critical degree descending; ties broken toward
		// chains that unblock more downstream work, then by name for
		// determinism.
		sort.Stable(byPriority{cands: cands, favored: st.favored})

		// Memory fit: take fragments in priority order while their remaining
		// build-side growth fits the grant. A candidate that does not fit
		// first evicts cold resident temp pages, if any — builds are the
		// grant's primary tenants, residency lives off the leftovers — and
		// only counts as skipped if spilling everything still leaves it short.
		avail := med.Mem.Available()
		var taken int64 // estimated growth of the fragments accepted so far
		var sp []*exec.Fragment
		var skippedTop *cand
		var skippedAdd int64
		for i := range cands {
			c := &cands[i]
			add := p.estAdd(c.cs.rt, c.frag)
			if add > avail && med.Mem.ResidentBytes() > 0 {
				if freed := med.Mem.FreeUp(taken + add); freed > 0 {
					med.Trace.Add(med.Now(), sim.EvMemRepair,
						"spilled %d resident bytes to schedule %s without a split",
						freed, c.frag.Label)
					avail = med.Mem.Available() - taken
				}
			}
			if add <= avail {
				sp = append(sp, c.frag)
				avail -= add
				taken += add
				continue
			}
			if skippedTop == nil {
				skippedTop = c
				skippedAdd = add
			}
		}
		if len(sp) == 0 && skippedTop != nil {
			// Nothing fits: ask the DQO for a memory-repair split of the most
			// critical candidate (§4.2), then re-plan.
			if p.splitForMemory(skippedTop.cs) {
				splits++
				if splits > p.splitBudget {
					med.Trace.Add(med.Now(), sim.EvMemRepair,
						"memory-repair split budget (%d) exhausted repairing %s", p.splitBudget, skippedTop.frag.Label)
					return nil, fmt.Errorf("core: memory-repair split budget (%d) exhausted at one planning point (repairing %s)",
						p.splitBudget, skippedTop.frag.Label)
				}
				continue
			}
			// No split can help according to the *estimates* — but estimates
			// can be wrong (§1: inaccurate statistics). Schedule the top
			// candidate optimistically: if the build really overflows, the
			// overflow machinery suspends it and genuine infeasibility is
			// detected when no suspended fragment can ever resume.
			med.Trace.Add(med.Now(), sim.EvMemRepair,
				"optimistic schedule of %s (estimated need %d > available %d)",
				skippedTop.frag.Label, skippedAdd, avail)
			sp = append(sp, skippedTop.frag)
		}
		return sp, nil
	}
}

// candidates assembles the schedulable-fragment set for one planning pass.
// Every chain is evaluated afresh against the state the scheduler sees now:
// no verdict is carried from one planning point to the next.
func (p *dsePolicy) candidates(st *State) []cand {
	med := st.Mediator()
	// Lift memory suspensions once the grant has visibly grown.
	for _, cs := range p.states {
		if cs.memSuspended && med.Mem.Available() > cs.suspendAvail {
			cs.memSuspended = false
		}
	}
	cands := make([]cand, 0, len(p.states))
	for _, cs := range p.states {
		if c, ok := p.evalChain(st, cs); ok {
			cands = append(cands, c)
		}
	}
	return cands
}

// evalChain runs the eligibility evaluation of one chain — input readiness,
// C-schedulability, the §4.4 degradation consideration, lazy fragment
// creation — and returns its candidate, if it has one.
func (p *dsePolicy) evalChain(st *State, cs *chainState) (cand, bool) {
	med := st.Mediator()
	seg := cs.active()
	rt := cs.rt
	if seg == nil || cs.memSuspended || st.queryDone(rt) {
		return cand{}, false
	}
	// Input readiness: the first segment reads its wrapper queue; later
	// segments need the previous segment's temp to be complete.
	if cs.cur > 0 {
		prev := cs.segs[cs.cur-1]
		if prev.frag == nil || !prev.frag.Done() {
			return cand{}, false
		}
	}
	if !tablesComplete(rt, cs.chain.Joins[seg.fromStep:seg.toStep]) {
		// Degradation consideration (§4.4): only plain, never-started,
		// never-degraded full PCs qualify.
		if cs.degraded || len(cs.segs) != 1 || seg.started() {
			return cand{}, false
		}
		n := cs.chain.Scan.Rel.Cardinality
		if CriticalDegree(rt, cs.chain, n, rt.Wait(cs.chain)) <= 0 {
			return cand{}, false
		}
		if bmi := BMI(rt, cs.chain); bmi <= rt.Cfg.BMT {
			return cand{}, false
		}
		cs.splitActive(seg.fromStep) // MF [0,0) + CF [0,len)
		cs.degraded = true
		med.CountDegrade()
		med.Trace.Add(med.Now(), sim.EvDegrade, "degrade %s%s (bmi=%.2f > bmt=%.2f)",
			prefixLabel(rt.Label), cs.chain.Name, BMI(rt, cs.chain), rt.Cfg.BMT)
		seg = cs.active() // the MF: no probed tables, always C-schedulable
	}
	if seg.frag == nil {
		seg.frag = rt.NewSegment(cs.chain, seg.fromStep, seg.toStep, cs.prevTemp(), cs.cur == len(cs.segs)-1)
	}
	if seg.frag.Done() {
		return cand{}, false
	}
	return cand{cs: cs, frag: seg.frag, prio: fragmentPriority(rt, seg.frag)}, true
}

// estAdd estimates the additional memory a fragment will reserve: the
// remaining growth of its terminal build table. Materializing and
// output-terminated fragments consume no accountable memory.
func (p *dsePolicy) estAdd(rt *exec.Runtime, f *exec.Fragment) int64 {
	if f.Term != exec.TermBuild {
		return 0
	}
	est := rt.EstBuildBytes(f.Chain)
	already := rt.TableReserved(f.Chain.BuildsFor)
	if est <= already {
		return 0
	}
	return est - already
}
