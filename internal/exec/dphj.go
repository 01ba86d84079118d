package exec

import (
	"slices"
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
func (rt *Runtime) NewDPHJFeeds() []*Fragment {
	net := newSymNet(rt)
	rt.net = net
	feeds := make([]*Fragment, 0, len(rt.Dec.Chains))
	for _, c := range rt.Dec.Chains {
		f := rt.newFragment(c, c.Name, 0, 0, rt.queueIn(c), TermJoinNet, nil)
		f.leaf = &net.leaves[c.ID]
		feeds = append(feeds, f)
	}
	return feeds
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

	// ents lists one arrival's matches as entries of the opposite table,
	// reused across arrivals. Safe because arrive recurses strictly upward
	// through distinct joins (the plan is a tree), so a join's list is never
	// re-entered while in use, and neither table it reads is inserted into
	// meanwhile: a result row is gathered straight into the parent's table.
	ents []int32
}

// symLeaf maps a wrapper to its entry point in the network.
type symLeaf struct {
	join      *symJoin
	fromBuild bool
}

// symNet is the whole join network: one slab of joins in Dec.Joins order and
// one of leaves indexed by Chain.ID, neither grown after newSymNet, so the
// parent and leaf pointers into them stay valid.
type symNet struct {
	rt     *Runtime
	joins  []symJoin
	leaves []symLeaf
	holder mem.HolderID // names the grant bytes held by both sides' tables
}

// newSymNet compiles the plan into a symmetric-hash-join network.
func newSymNet(rt *Runtime) *symNet {
	dec := rt.Dec
	net := &symNet{rt: rt, joins: make([]symJoin, len(dec.Joins)), leaves: make([]symLeaf, len(dec.Chains)),
		holder: rt.Med.Mem.Bind(rt.Label, "DPHJ")}
	s := rt.Med.scratch
	// consumer returns the network entry fed by node n: its parent join and
	// side, or nil when n feeds the output.
	consumer := func(n *plan.Node) (*symJoin, bool) {
		p := n.Parent()
		if p.Kind != plan.KindHashJoin {
			return nil, false
		}
		return &net.joins[slices.Index(dec.Joins, p)], p.Build == n
	}
	for i, n := range dec.Joins {
		// Both sides retain their full input, so the optimizer's subtree
		// estimates pre-size both tables.
		bi, pi := n.Build.Live.MustIndexOf(n.BuildKey), n.Probe.Live.MustIndexOf(n.ProbeKey)
		sj := &net.joins[i]
		*sj = symJoin{
			node:       n,
			buildTable: s.table(bi, n.Build.Live.Width(), clampReserveRows(int64(n.Build.EstRows))),
			probeTable: s.table(pi, n.Probe.Live.Width(), clampReserveRows(int64(n.Probe.EstRows))),
			buildIdx:   bi,
			probeIdx:   pi,
		}
		sj.parent, sj.fromBuild = consumer(n)
		sj.ents = s.getIndices()
	}
	// A leaf with a nil join is a single-relation plan: tuples go straight
	// to the output.
	for _, c := range dec.Chains {
		leaf := &net.leaves[c.ID]
		leaf.join, leaf.fromBuild = consumer(c.Scan)
	}
	return net
}

// release returns the tables' grant and hands the network's pooled tables
// and scratch back to s, in Dec.Joins order. Idempotent: the query's
// completion releases the network, and Mediator.Reclaim sweeps whatever an
// aborted run left.
func (net *symNet) release(s *scratch) {
	net.rt.Med.Mem.Release(net.holder, net.rt.Med.Mem.Held(net.holder))
	for i := range net.joins {
		sj := &net.joins[i]
		s.putTable(sj.buildTable)
		s.putTable(sj.probeTable)
		s.putIndices(sj.ents)
		sj.buildTable, sj.probeTable, sj.ents = nil, nil, nil
	}
}

// feed delivers slot i of a feed's chunk at its leaf: the row is gathered
// from the chunk's columns straight into its side's table, or, in a
// single-relation plan, it is already a result. It returns false on memory
// exhaustion.
func (net *symNet) feed(leaf *symLeaf, c *chunk, i int) bool {
	rt, sj := net.rt, leaf.join
	if sj == nil {
		rt.Med.Costs.ChargeResult()
		if row := rt.emitOutput(); row != nil {
			gatherAt(c, i, nil, nil, row, rt.Dec.LiveAt)
			rt.stream(row)
		}
		return true
	}
	t := net.insert(sj, leaf.fromBuild, len(c.cols))
	if t == nil {
		return false
	}
	gather(c, i, nil, nil, t, 1)
	return net.probe(sj, leaf.fromBuild, t)
}

// arrive delivers the row a++b to a join from the given side, inserting it,
// probing the opposite table and propagating matches upward. It returns
// false on memory exhaustion.
func (net *symNet) arrive(sj *symJoin, fromBuild bool, a, b relation.Tuple) bool {
	t := net.insert(sj, fromBuild, len(a)+len(b))
	if t == nil {
		return false
	}
	copy(t[copy(t, a):], b)
	return net.probe(sj, fromBuild, t)
}

// insert reserves and charges one row of width w on the given side of sj
// and returns the row's storage in that side's table, for the caller to
// fill before the table is probed, or nil on memory exhaustion.
func (net *symNet) insert(sj *symJoin, fromBuild bool, w int) relation.Tuple {
	rt := net.rt
	if !rt.Med.Mem.Reserve(net.holder, int64(rt.Med.Cfg.Params.TupleSize)) {
		return nil
	}
	rt.Med.Costs.ChargeMove()
	rt.Med.Work.ValuesCopied += int64(w)
	if fromBuild {
		return sj.buildTable.Extend(w, 1)
	}
	return sj.probeTable.Extend(w, 1)
}

// probe matches t, just inserted on the given side of sj, against the
// opposite table and passes each result — probe side first, matching the
// join's Live schema — to the parent join, or to the output at the root.
// It returns false on memory exhaustion.
func (net *symNet) probe(sj *symJoin, fromBuild bool, t relation.Tuple) bool {
	rt := net.rt
	rt.Med.Costs.ChargeProbe()
	other, idx := sj.buildTable, sj.probeIdx
	if fromBuild {
		other, idx = sj.probeTable, sj.buildIdx
	}
	sj.ents = other.Chain(sj.ents[:0], other.Head(t[idx]))
	// The probe loop reads no clocks, so the per-match result charges merge
	// into one exact clock addition.
	rt.Med.Costs.Clock.Work(time.Duration(len(sj.ents)) * rt.Med.Costs.ResultT)
	w := rt.Med.Work
	w.HeadLookups++
	w.ChainSteps += int64(len(sj.ents))
	for _, e := range sj.ents {
		a, b := t, other.Entry(e)
		if fromBuild {
			a, b = b, a
		}
		if sj.parent != nil {
			if !net.arrive(sj.parent, sj.fromBuild, a, b) {
				return false
			}
			continue
		}
		if row := rt.emitOutput(); row != nil {
			at := rt.Dec.LiveAt
			for j, v := range a {
				row[at[j]] = v
			}
			for j, v := range b {
				row[at[len(a)+j]] = v
			}
			rt.stream(row)
		}
	}
	return true
}
