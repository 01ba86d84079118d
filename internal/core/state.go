// Package core implements the paper's contribution: the dynamic query
// scheduler (DQS, §4), the dynamic query processor (DQP, §3.2) and the
// memory-repair part of the dynamic QEP optimizer (DQO, §4.2), composed
// into the DSE execution strategy evaluated in §5. It runs on the shared
// runtime of package exec, so SEQ, MA and DSE differ only in scheduling.
package core

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"dqs/internal/exec"
	"dqs/internal/mem"
	"dqs/internal/plan"
)

// segSpec is one segment of a (possibly split) pipeline chain: chain steps
// [fromStep, toStep), reading either the wrapper queue (first segment) or
// the previous segment's temp. Fragments are created lazily, when the
// segment first becomes schedulable.
type segSpec struct {
	fromStep, toStep int
	frag             *exec.Fragment
}

// chainState tracks the execution progress of one pipeline chain. A chain
// starts as a single segment covering all its steps (the plain PC); PC
// degradation (§4.4) and memory repair (§4.2) split not-yet-started
// segments into smaller ones.
type chainState struct {
	rt    *exec.Runtime // the query this chain belongs to
	chain *plan.Chain
	// descendants is the number of chains this chain transitively blocks,
	// the §4.3 tie-break toward enabling more downstream work.
	descendants int
	// segs is split in place; its capacity, carved from the query's segment
	// slab, holds the degradation and a split per step without growing.
	segs []segSpec
	cur  int // index of the active (first unfinished) segment

	degraded bool // an MF/CF degradation was applied

	// memSuspended is set while the active fragment is excluded from
	// scheduling after a memory overflow; it records the grant
	// availability at exclusion time, so the fragment is retried once
	// memory has been freed.
	memSuspended bool
	suspendAvail int64
}

// active returns the current segment, or nil when the chain is complete.
func (cs *chainState) active() *segSpec {
	if cs.cur >= len(cs.segs) {
		return nil
	}
	return &cs.segs[cs.cur]
}

// prevTemp returns the temp relation feeding the active segment (nil for a
// wrapper-fed first segment).
func (cs *chainState) prevTemp() *mem.Temp {
	if cs.cur == 0 {
		return nil
	}
	prev := &cs.segs[cs.cur-1]
	if prev.frag == nil {
		panic(fmt.Sprintf("core: %s segment %d has no completed predecessor", cs.chain.Name, cs.cur))
	}
	return prev.frag.Temp
}

// started reports whether the active segment has consumed any input.
func (s *segSpec) started() bool { return s.frag != nil && s.frag.Processed() > 0 }

// splitActive replaces the active, not-yet-started segment [from, to) with
// [from, k) + [k, to), in place; both halves create their fragments afresh.
// It panics on misuse; callers must validate. A pointer to a segment is
// stale after a split.
func (cs *chainState) splitActive(k int) {
	seg := cs.active()
	if seg == nil || seg.started() {
		panic(fmt.Sprintf("core: illegal split of %s", cs.chain.Name))
	}
	if k < seg.fromStep || k > seg.toStep {
		panic(fmt.Sprintf("core: split point %d outside segment [%d,%d) of %s",
			k, seg.fromStep, seg.toStep, cs.chain.Name))
	}
	tail := segSpec{fromStep: k, toStep: seg.toStep}
	*seg = segSpec{fromStep: seg.fromStep, toStep: k}
	cs.segs = slices.Insert(cs.segs, cs.cur+1, tail)
	cs.memSuspended = false
}

// advance moves past a finished segment; past the last one the chain is
// complete and active returns nil.
func (cs *chainState) advance() {
	cs.memSuspended = false
	cs.cur++
}

// tablesComplete reports C-schedulability: every hash table the joins probe
// is fully built.
func tablesComplete(rt *exec.Runtime, joins []*plan.Node) bool {
	for _, j := range joins {
		if !rt.TableComplete(j) {
			return false
		}
	}
	return true
}

// compareKeys orders chains by their query label and chain name read as one
// string, label+name, without building it: the deterministic tie-break of
// byPriority.
func compareKeys(a, b *chainState) int {
	a1, a2, b1, b2 := a.rt.Label, a.chain.Name, b.rt.Label, b.chain.Name
	for {
		if a1 == "" {
			a1, a2 = a2, ""
		}
		if b1 == "" {
			b1, b2 = b2, ""
		}
		if a1 == "" || b1 == "" {
			return cmp.Compare(len(a1), len(b1))
		}
		n := min(len(a1), len(b1))
		if c := strings.Compare(a1[:n], b1[:n]); c != 0 {
			return c
		}
		a1, b1 = a1[n:], b1[n:]
	}
}
