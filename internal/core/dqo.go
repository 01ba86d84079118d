package core

import (
	"fmt"
	"slices"

	"dqs/internal/exec"
	"dqs/internal/sim"
)

// ErrInsufficientMemory reports that no scheduling or plan repair can make
// the query fit its memory grant.
var ErrInsufficientMemory = fmt.Errorf("core: query cannot execute within its memory grant")

func errInsufficientMemory(label string, grant int64) error {
	return fmt.Errorf("%w (fragment %s, grant %d bytes)", ErrInsufficientMemory, label, grant)
}

// splitForMemory is the DQO's proactive repair of a non-M-schedulable chain
// (§4.2, after [4]): insert a materialization point inside the active
// segment so that the head part can run, complete, and release the hash
// tables it probes — freeing memory for the rest. The mat point is placed
// at the lowest step that frees enough memory ("highest possible point" is
// bounded by the requirement that the tail become M-schedulable; with hash
// tables pre-built by ancestor chains the binding constraint is the tail's
// build). It returns false when no split can help.
func (p *dsePolicy) splitForMemory(cs *chainState) bool {
	rt := cs.rt
	seg := cs.active()
	if seg == nil || seg.started() {
		return false
	}
	need := rt.EstBuildBytes(cs.chain)
	avail := rt.Mem.Available()
	var released int64
	// k == seg.toStep is the degenerate-but-useful top split: the head runs
	// every probe and materializes, releasing all its tables before the
	// tail performs the terminal build.
	for k := seg.fromStep + 1; k <= seg.toStep; k++ {
		j := cs.chain.Joins[k-1]
		released += rt.TableReserved(j)
		if need <= avail+released {
			cs.splitActive(k)
			rt.CountMemRepair()
			rt.Trace.Add(rt.Now(), sim.EvMemRepair, "split %s%s at step %d (frees %d bytes)",
				prefixLabel(rt.Label), cs.chain.Name, k, released)
			return true
		}
	}
	return false
}

// handleOverflow reacts to a fragment exhausting the memory grant while
// building a hash table. The fragment is suspended until memory is freed;
// additionally, the DQO tries to free memory structurally by splitting the
// chain that will probe the overflowing table: its head part probes (and
// then releases) the tables below the blocked join (§4.2).
func (p *dsePolicy) handleOverflow(f *exec.Fragment) {
	rt := f.Runtime()
	cs := p.state(rt, f.Chain)
	cs.memSuspended = true
	cs.suspendAvail = rt.Mem.Available()
	rt.Trace.Add(rt.Now(), sim.EvMemRepair, "suspend %s: memory grant exhausted (%d/%d bytes used)",
		f.Label, rt.Mem.Used(), rt.Mem.Total())
	if f.Term != exec.TermBuild {
		return
	}
	blocked := f.Chain.BuildsFor
	prober := p.state(rt, rt.Dec.ProberOf(blocked))
	seg := prober.active()
	if seg == nil || seg.started() {
		return
	}
	sj := slices.Index(prober.chain.Joins, blocked)
	if sj <= seg.fromStep || sj >= seg.toStep {
		return // the head would release nothing, or the join is in a later segment
	}
	prober.splitActive(sj)
	rt.CountMemRepair()
	rt.Trace.Add(rt.Now(), sim.EvMemRepair, "split %s%s below J%d to free its lower tables",
		prefixLabel(rt.Label), prober.chain.Name, blocked.ID)
}
