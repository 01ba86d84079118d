package exec

import (
	"time"

	"fmt"

	"dqs/internal/operator"
	"dqs/internal/plan"
	"dqs/internal/relation"
	"dqs/internal/sim"
)

// RunDPHJ executes the plan as a network of double-pipelined (symmetric)
// hash joins — the operator-level adaptation the paper's §1.1 discusses
// ([8], after the parallel-database design of [16]). Every join keeps a
// hash table on BOTH inputs and every edge is pipelinable: a tuple arriving
// from either side is inserted into its side's table and probed against the
// other, so the engine reacts to any wrapper's data the instant it arrives,
// with no scheduling decisions at all.
//
// The price is the one the paper alludes to: every input and intermediate
// result is retained in memory on both sides of its join (roughly twice
// the footprint of the asymmetric plan), the approach only works for
// hash-based (equi-join) plans, and there is no memory adaptation — an
// overflow is fatal.
func RunDPHJ(rt *Runtime) (Result, error) {
	net, err := newSymNet(rt)
	if err != nil {
		return Result{}, err
	}
	defer net.reclaim()
	type feed struct {
		src  *queueSource
		leaf *symLeaf
		at   []int          // batch-column → full-schema gather map
		row  relation.Tuple // reused scan-width gather row
	}
	feeds := make([]feed, 0, len(rt.Dec.Chains))
	for _, c := range rt.Dec.Chains {
		leaf, ok := net.leaves[c.Scan.Rel.Name]
		if !ok {
			return Result{}, fmt.Errorf("exec: DPHJ leaf for %s missing", c.Scan.Rel.Name)
		}
		feeds = append(feeds, feed{
			src:  rt.qsrcs[c.Scan.Rel.Name],
			leaf: leaf,
			at:   rt.colPush[c.Scan.Rel.Name].keep,
			row:  make(relation.Tuple, c.Scan.Schema.Width()),
		})
	}
	s := rt.Med.scratch
	colBatch := s.GetBatch(0)
	defer s.PutBatch(colBatch)
	passBuf := s.GetBools()
	if cap(passBuf) < rt.Cfg.BatchTuples {
		passBuf = make([]bool, rt.Cfg.BatchTuples)
	}
	passBuf = passBuf[:rt.Cfg.BatchTuples]
	defer s.PutBools(passBuf)
	for {
		progressed := false
		exhausted := 0
		for _, f := range feeds {
			if f.src.Exhausted() {
				exhausted++
				continue
			}
			// Bulk removal with per-slot credits at the instants the tuples
			// are reached (see Fragment.processColumnar); wrapper-filtered
			// slots are skipped by their pass bit.
			colBatch.Reset(len(f.at))
			n := f.src.PopBatch(rt.Now(), colBatch, passBuf)
			for i := 0; i < n; i++ {
				f.src.Credit(rt.Now())
				rt.Costs.ChargeReceive()
				rt.Costs.ChargeMove()
				if !passBuf[i] {
					continue
				}
				colBatch.Gather(i, f.row, f.at)
				if !net.arrive(f.leaf.join, f.leaf.fromBuild, f.row) {
					return Result{}, fmt.Errorf("%w (symmetric join network)", ErrMemoryExceeded)
				}
			}
			if n > 0 {
				progressed = true
			}
		}
		if exhausted == len(feeds) {
			break
		}
		if !progressed {
			var next time.Duration = -1
			for _, f := range feeds {
				if f.src.Exhausted() {
					continue
				}
				if at, ok := f.src.NextArrival(); ok && (next < 0 || at < next) {
					next = at
				}
			}
			if next < 0 {
				return Result{}, fmt.Errorf("exec: DPHJ starved with no future arrivals")
			}
			rt.Trace.Add(rt.Now(), sim.EvStall, "DPHJ stall")
			rt.Clock.Stall(next)
		}
	}
	return rt.Finish("DPHJ"), nil
}

// symJoin is one symmetric join: hash tables on both inputs.
type symJoin struct {
	node       *plan.Node
	buildTable *operator.HashTable // over tuples arriving from the Build subtree
	probeTable *operator.HashTable // over tuples arriving from the Probe subtree
	buildIdx   int                 // key index in Build-side tuples
	probeIdx   int                 // key index in Probe-side tuples

	parent    *symJoin
	fromBuild bool // whether this join's output feeds the parent's Build side

	// Per-join match scratch, reused across arrivals. Safe because arrive
	// recurses strictly upward through distinct joins (the plan is a tree),
	// so a join's scratch is never re-entered while in use, and the parent's
	// table inserts copy the tuple values out.
	arena    relation.Arena
	matchBuf []relation.Tuple
}

// symLeaf maps a wrapper to its entry point in the network.
type symLeaf struct {
	join      *symJoin
	fromBuild bool
}

// symNet is the whole join network.
type symNet struct {
	rt       *Runtime
	joins    map[int]*symJoin
	leaves   map[string]*symLeaf
	root     *symJoin // nil for single-scan plans
	reserved int64    // grant bytes held by both sides' tables
}

// newSymNet compiles the plan into a symmetric-hash-join network.
func newSymNet(rt *Runtime) (*symNet, error) {
	net := &symNet{rt: rt, joins: make(map[int]*symJoin), leaves: make(map[string]*symLeaf)}
	s := rt.Med.scratch
	var build func(n *plan.Node, parent *symJoin, fromBuild bool) error
	build = func(n *plan.Node, parent *symJoin, fromBuild bool) error {
		switch n.Kind {
		case plan.KindOutput:
			return build(n.Child, nil, false)
		case plan.KindHashJoin:
			sj := &symJoin{
				node:       n,
				buildTable: s.Table(n.Build.Schema.MustIndexOf(n.BuildKey)),
				probeTable: s.Table(n.Probe.Schema.MustIndexOf(n.ProbeKey)),
				buildIdx:   n.Build.Schema.MustIndexOf(n.BuildKey),
				probeIdx:   n.Probe.Schema.MustIndexOf(n.ProbeKey),
				parent:     parent,
				fromBuild:  fromBuild,
			}
			// Both sides retain their full input, so the optimizer's subtree
			// estimates pre-size both tables.
			sj.buildTable.Reserve(n.Build.Schema.Width(), clampReserveRows(int64(n.Build.EstRows)))
			sj.probeTable.Reserve(n.Probe.Schema.Width(), clampReserveRows(int64(n.Probe.EstRows)))
			sj.arena.Recycle(s.GetInts())
			sj.matchBuf = s.GetTuples()
			if parent == nil {
				net.root = sj
			}
			net.joins[n.ID] = sj
			if err := build(n.Build, sj, true); err != nil {
				return err
			}
			return build(n.Probe, sj, false)
		case plan.KindScan:
			// A nil parent is a single-relation plan: tuples go straight to
			// the output.
			net.leaves[n.Rel.Name] = &symLeaf{join: parent, fromBuild: fromBuild}
			return nil
		default:
			return fmt.Errorf("exec: DPHJ cannot compile node kind %v", n.Kind)
		}
	}
	if err := build(rt.Root, nil, false); err != nil {
		net.reclaim()
		return nil, err
	}
	return net, nil
}

// reclaim returns the tables' grant and hands the network's pooled tables
// and scratch back to the mediator's Scratch; the join network lives only
// for one RunDPHJ call.
func (net *symNet) reclaim() {
	net.rt.Mem.Release(net.reserved)
	s := net.rt.Med.scratch
	for _, sj := range net.joins {
		s.PutTable(sj.buildTable)
		s.PutTable(sj.probeTable)
		s.PutInts(sj.arena.Release())
		s.PutTuples(sj.matchBuf)
		sj.buildTable, sj.probeTable, sj.matchBuf = nil, nil, nil
	}
}

// arrive delivers one tuple to a join from the given side, inserting,
// probing the opposite table and propagating matches upward. A nil join
// means the tuple is already a result. It returns false on memory
// exhaustion.
func (net *symNet) arrive(sj *symJoin, fromBuild bool, t relation.Tuple) bool {
	rt := net.rt
	if sj == nil {
		rt.Costs.ChargeResult()
		rt.emitOutput(t)
		return true
	}
	if !rt.Mem.Reserve(int64(rt.Cfg.Params.TupleSize)) {
		return false
	}
	net.reserved += int64(rt.Cfg.Params.TupleSize)
	rt.Costs.ChargeMove()
	sj.arena.Reset()
	matches := sj.matchBuf[:0]
	var k int
	if fromBuild {
		sj.buildTable.Insert(t)
		rt.Costs.ChargeProbe()
		// Result schema is probe ++ build, matching the plan schema.
		matches, k = sj.probeTable.ProbeConcatRev(matches, t, t[sj.buildIdx], &sj.arena)
	} else {
		sj.probeTable.Insert(t)
		rt.Costs.ChargeProbe()
		matches, k = sj.buildTable.ProbeConcat(matches, t, t[sj.probeIdx], &sj.arena)
	}
	// The probe loop reads no clocks, so the per-match result charges merge
	// into one exact clock addition.
	rt.Costs.CPU.Clock.Work(time.Duration(k) * rt.Costs.ResultT)
	sj.matchBuf = matches
	for _, out := range matches {
		if sj.parent == nil {
			rt.emitOutput(out)
			continue
		}
		if !net.arrive(sj.parent, sj.fromBuild, out) {
			return false
		}
	}
	return true
}
