package exec

import (
	"fmt"
	"time"

	"dqs/internal/mem"
	"dqs/internal/operator"
	"dqs/internal/plan"
	"dqs/internal/relation"
)

// NewDPHJFeeds compiles the plan into a network of double-pipelined
// (symmetric) hash joins — the operator-level adaptation the paper's §1.1
// discusses ([8], after the parallel-database design of [16]) — and returns
// one wrapper-fed fragment per relation, in decomposition order, whose
// terminal is that relation's entry into the network. Every join keeps a
// hash table on BOTH inputs and every edge is pipelinable: a tuple arriving
// from either side is inserted into its side's table and probed against the
// other, so the engine reacts to any wrapper's data the instant it arrives;
// the feeds need no scheduling beyond a round-robin sweep.
//
// The price is the one the paper alludes to: every input and intermediate
// result is retained in memory on both sides of its join (roughly twice
// the footprint of the asymmetric plan), the approach only works for
// hash-based (equi-join) plans, and there is no memory adaptation — an
// overflow is fatal. The network holds its tables until the query completes.
func (rt *Runtime) NewDPHJFeeds() ([]*Fragment, error) {
	net, err := newSymNet(rt)
	if err != nil {
		return nil, err
	}
	rt.net = net
	feeds := make([]*Fragment, 0, len(rt.Dec.Chains))
	for _, c := range rt.Dec.Chains {
		f := rt.newFragment(c, c.Name, 0, 0, rt.queueIn(c), TermJoinNet, nil)
		f.leaf = net.leaves[c.Scan.Rel.Name]
		feeds = append(feeds, f)
	}
	return feeds, nil
}

// symJoin is one symmetric join: hash tables on both inputs.
type symJoin struct {
	node       *plan.Node
	buildTable *operator.HashTable // over tuples arriving from the Build subtree
	probeTable *operator.HashTable // over tuples arriving from the Probe subtree
	buildIdx   int                 // key index in Build-side (Build.Live) rows
	probeIdx   int                 // key index in Probe-side (Probe.Live) rows

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
	rt     *Runtime
	joins  map[int]*symJoin
	leaves map[string]*symLeaf
	holder mem.HolderID // names the grant bytes held by both sides' tables
}

// newSymNet compiles the plan into a symmetric-hash-join network.
func newSymNet(rt *Runtime) (*symNet, error) {
	net := &symNet{rt: rt, joins: make(map[int]*symJoin), leaves: make(map[string]*symLeaf),
		holder: rt.Mem.Bind(rt.Label, "DPHJ")}
	s := rt.Med.scratch
	var build func(n *plan.Node, parent *symJoin, fromBuild bool) error
	build = func(n *plan.Node, parent *symJoin, fromBuild bool) error {
		switch n.Kind {
		case plan.KindOutput:
			return build(n.Child, nil, false)
		case plan.KindHashJoin:
			// Both sides retain their full input, so the optimizer's subtree
			// estimates pre-size both tables.
			bi, pi := n.Build.Live.MustIndexOf(n.BuildKey), n.Probe.Live.MustIndexOf(n.ProbeKey)
			sj := &symJoin{
				node:       n,
				buildTable: s.table(bi, n.Build.Live.Width(), clampReserveRows(int64(n.Build.EstRows))),
				probeTable: s.table(pi, n.Probe.Live.Width(), clampReserveRows(int64(n.Probe.EstRows))),
				buildIdx:   bi,
				probeIdx:   pi,
				parent:     parent,
				fromBuild:  fromBuild,
			}
			sj.arena.Recycle(s.getInts())
			sj.matchBuf = s.getTuples()
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
		net.release(s)
		return nil, err
	}
	return net, nil
}

// release returns the tables' grant and hands the network's pooled tables
// and scratch back to s. Idempotent: the query's completion releases the
// network, and Mediator.Reclaim sweeps whatever an aborted run left.
func (net *symNet) release(s *scratch) {
	net.rt.Mem.Release(net.holder, net.rt.Mem.Held(net.holder))
	for _, sj := range net.joins {
		s.putTable(sj.buildTable)
		s.putTable(sj.probeTable)
		s.putInts(sj.arena.Release())
		s.putTuples(sj.matchBuf)
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
	if !rt.Mem.Reserve(net.holder, int64(rt.Cfg.Params.TupleSize)) {
		return false
	}
	rt.Costs.ChargeMove()
	sj.arena.Reset()
	matches := sj.matchBuf[:0]
	var k int
	if fromBuild {
		sj.buildTable.Insert(t)
		rt.Costs.ChargeProbe()
		// Result rows are probe ++ build, matching the join's Live schema.
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
