package exec

import (
	"fmt"
	"time"

	"dqs/internal/mem"
	"dqs/internal/plan"
	"dqs/internal/relation"
	"dqs/internal/sim"
)

// TerminalKind says where a fragment's output tuples go.
type TerminalKind int

// Fragment terminals.
const (
	// TermBuild inserts into the hash table of the parent join (the
	// chain's blocking output edge).
	TermBuild TerminalKind = iota
	// TermTemp materializes into a temporary relation (MF(p) of §4.4, or
	// the head of a memory-repair split of §4.2).
	TermTemp
	// TermOutput emits final query results.
	TermOutput
	// TermJoinNet delivers into the runtime's symmetric join network at the
	// fragment's relation leaf (the DPHJ feeds, see NewDPHJFeeds).
	TermJoinNet
)

// String names the terminal kind.
func (k TerminalKind) String() string {
	switch k {
	case TermBuild:
		return "build"
	case TermTemp:
		return "temp"
	case TermOutput:
		return "output"
	case TermJoinNet:
		return "joinnet"
	default:
		return fmt.Sprintf("terminal(%d)", int(k))
	}
}

// Fragment is one schedulable unit of work: a (sub-)pipeline-chain with an
// input tuple source and a terminal. A full PC, an MF, a CF, the halves of a
// memory-repair split and a DPHJ feed are all Fragments differing only in
// step range, input and terminal. Fragments are resumable: the DQP can
// process a batch, switch away, and come back with no loss. A batch runs on
// the mediator's one cascade and leaves nothing there: the chunk is drained
// or its tail unpopped, and every output is sunk or stranded (copied).
type Fragment struct {
	rt    *Runtime
	Chain *plan.Chain
	Label string

	// FromStep/ToStep bound the probed joins: Chain.Joins[FromStep:ToStep].
	FromStep, ToStep int
	// QueueInput distinguishes wrapper-fed fragments (which pay receive
	// costs and whose scan predicate the wrapper already applied) from
	// temp-fed ones.
	QueueInput bool
	In         TupleSource
	Term       TerminalKind
	// Temp receives output tuples when Term == TermTemp.
	Temp *mem.Temp
	// build is the table the fragment builds when Term == TermBuild.
	build *tableState
	// leaf is the join-network entry point when Term == TermJoinNet.
	leaf *symLeaf

	steps []stepExec

	// pending holds terminal-ready tuples that could not be sunk because
	// the memory grant was exhausted; they are retried on resume. Pending
	// tuples are copied out of the mediator's cascade arena into pendArena,
	// which grows only for a fragment that strands outputs and is reset only
	// when the retry buffer has fully drained, so a repeated overflow
	// allocates nothing either.
	pending   []relation.Tuple
	pendArena relation.Arena
	processed int64
	done      bool
	// superseded marks a fragment replaced before it started: a re-plan
	// split its segment and the chain opened a new fragment at the same
	// step. It never runs again and Cancel skips it.
	superseded bool
}

type stepExec struct {
	join     *plan.Node
	table    *tableState
	probeIdx int
}

// inputSchemaAt returns the schema of the rows entering step i of chain c:
// the Live schema of the step's input node.
func inputSchemaAt(c *plan.Chain, i int) *relation.Schema {
	if i == 0 {
		return c.Scan.Live
	}
	return c.Joins[i-1].Live
}

// fragmentSlabs returns how many fragments, and steps of theirs, a query of
// decomposition dec reserves room for: per chain a plain fragment, an MF/CF
// degradation and a split at every step (DSE's segment budget), and every
// step twice.
func fragmentSlabs(dec *plan.Decomposition) (frags, steps int) {
	for _, c := range dec.Chains {
		frags += len(c.Joins) + 2
		steps += 2 * len(c.Joins)
	}
	return frags, steps
}

// carve takes a fragment with room for n steps from the query's slabs. A
// slab that runs out is replaced by a fresh chunk, never grown in place, so
// every fragment carved before stays where it is.
func (rt *Runtime) carve(n int) (*Fragment, []stepExec) {
	if len(rt.fragRoom) == 0 || len(rt.stepRoom) < n {
		frags, steps := fragmentSlabs(rt.Dec)
		if len(rt.fragRoom) == 0 {
			rt.fragRoom = make([]Fragment, frags)
		}
		if len(rt.stepRoom) < n {
			rt.stepRoom = make([]stepExec, max(n, steps))
		}
	}
	f, s := &rt.fragRoom[0], rt.stepRoom[:n:n]
	rt.fragRoom, rt.stepRoom = rt.fragRoom[1:], rt.stepRoom[n:]
	return f, s
}

// newFragment builds a fragment over chain steps [fromStep, toStep), fed by
// the chain's wrapper queue or by a temp reader.
func (rt *Runtime) newFragment(c *plan.Chain, label string, fromStep, toStep int, in TupleSource, term TerminalKind, temp *mem.Temp) *Fragment {
	if fromStep < 0 || toStep > len(c.Joins) || fromStep > toStep {
		panic(fmt.Sprintf("exec: bad fragment step range [%d,%d) for %s", fromStep, toStep, c.Name))
	}
	f, steps := rt.carve(toStep - fromStep)
	*f = Fragment{
		rt:       rt,
		Chain:    c,
		Label:    label,
		FromStep: fromStep,
		ToStep:   toStep,
		In:       in,
		Term:     term,
		Temp:     temp,
		steps:    steps,
	}
	for k := range steps {
		i := fromStep + k
		j := c.Joins[i]
		steps[k] = stepExec{
			join:     j,
			table:    rt.table(j),
			probeIdx: inputSchemaAt(c, i).MustIndexOf(j.ProbeKey),
		}
	}
	if term == TermBuild {
		f.build = rt.table(c.BuildsFor)
	}
	for _, g := range rt.frags {
		if g.Chain == c && g.FromStep == fromStep && g.processed == 0 && !g.done {
			g.superseded = true
		}
	}
	_, f.QueueInput = in.(*queueSource)
	rt.frags = append(rt.frags, f)
	return f
}

// chainTerm returns the real terminal of chain c: its parent's build, or the
// query output at the root.
func chainTerm(c *plan.Chain) TerminalKind {
	if c.BuildsFor != nil {
		return TermBuild
	}
	return TermOutput
}

// NewPCFragment creates the fragment executing the whole pipeline chain.
func (rt *Runtime) NewPCFragment(c *plan.Chain) *Fragment {
	return rt.newFragment(c, c.Name, 0, len(c.Joins), rt.queueIn(c), chainTerm(c), nil)
}

// NewMFSync creates the materialization fragment of a chain (wrapper input,
// first scan applied, output spilled to a fresh temp; §4.4) with
// synchronous page writes: the materializing strategy holds the CPU for
// every transfer, as a strategy implemented on the classic iterator engine
// (materialize-all) does. The paper's DSE explicitly assumes asynchronous
// I/O for its fragments (NewSegment); MA does not.
func (rt *Runtime) NewMFSync(c *plan.Chain) *Fragment {
	in := rt.queueIn(c)
	temp := rt.Temps.CreateSyncSized(c.MF, c.Scan.Live, rt.segmentRowsHint(c, 0, 0, true, in))
	return rt.newFragment(c, c.MF, 0, 0, in, TermTemp, temp)
}

// NewCFSync creates the complement fragment over a completed MF's temp,
// with synchronous page reads (no prefetch overlap).
func (rt *Runtime) NewCFSync(c *plan.Chain, temp *mem.Temp) *Fragment {
	return rt.newFragment(c, c.CF, 0, len(c.Joins), tempSource{temp.NewSyncReader()}, chainTerm(c), nil)
}

// NewSegment creates the fragment executing chain steps [fromStep, toStep).
// A nil prev means wrapper input (fromStep must then be 0); otherwise the
// fragment reads prev, the closed temp of the preceding segment. last says
// whether this is the final segment of its chain: the final segment keeps
// the chain's real terminal (build or output); earlier segments materialize
// into a fresh temp (exposed as f.Temp) for their successor. Note that a
// memory-repair split at the very top of a chain (§4.2) produces a non-last
// segment covering every step, so "covers all steps" does not imply "last".
// MF/CF naming is used for the degenerate split at step 0 (§4.4).
func (rt *Runtime) NewSegment(c *plan.Chain, fromStep, toStep int, prev *mem.Temp, last bool) *Fragment {
	queueInput := prev == nil
	if queueInput && fromStep != 0 {
		panic(fmt.Sprintf("exec: wrapper-fed segment of %s must start at step 0, got %d", c.Name, fromStep))
	}
	if last && toStep != len(c.Joins) {
		panic(fmt.Sprintf("exec: last segment of %s must reach step %d, got %d", c.Name, len(c.Joins), toStep))
	}
	var label string
	switch {
	case queueInput && last && fromStep == 0:
		label = c.Name
	case queueInput && fromStep == 0 && toStep == 0:
		label = c.MF
	case !queueInput && fromStep == 0 && last:
		label = c.CF
	default:
		label = fmt.Sprintf("%s[%d:%d]", c.Name, fromStep, toStep)
	}
	var in TupleSource
	if queueInput {
		in = rt.queueIn(c)
	} else {
		in = tempSource{prev.NewReader(rt.Cfg.PrefetchPages)}
	}
	if last {
		return rt.newFragment(c, label, fromStep, toStep, in, chainTerm(c), nil)
	}
	temp := rt.Temps.CreateSized(label, inputSchemaAt(c, toStep), rt.segmentRowsHint(c, fromStep, toStep, queueInput, in))
	return rt.newFragment(c, label, fromStep, toStep, in, TermTemp, temp)
}

// Done reports whether the fragment has fully terminated.
func (f *Fragment) Done() bool { return f.done }

// Runtime returns the query runtime the fragment belongs to. Policies
// driving several queries need it to scope per-chain state: queries
// submitted from one workload object share plan-node pointers, so a chain
// pointer alone does not identify a chain execution.
func (f *Fragment) Runtime() *Runtime { return f.rt }

// PendingOutputs returns the number of terminal-ready tuples stranded by a
// memory overflow and awaiting retry; a drop between scheduler
// observations means the fragment made progress without consuming input.
func (f *Fragment) PendingOutputs() int { return len(f.pending) }

// Processed returns the number of input tuples consumed so far.
func (f *Fragment) Processed() int64 { return f.processed }

// Remaining returns the number of input tuples still to consume.
func (f *Fragment) Remaining() int { return f.In.Remaining() }

// NextArrival proxies the input source.
func (f *Fragment) NextArrival() (time.Duration, bool) { return f.In.NextArrival() }

// Runnable reports whether at least one input tuple is available now or the
// fragment has retryable pending output.
func (f *Fragment) Runnable(now time.Duration) bool {
	if f.done {
		return false
	}
	return len(f.pending) > 0 || f.In.Available(now) > 0
}

// sink delivers terminal-ready tuples in order and returns how many it
// delivered; fewer than len(outs) means the memory grant is exhausted (only
// possible for TermBuild and TermJoinNet). A build takes the whole run with
// one batched insert, its move charges merged into one clock addition (the
// insert path never reads the clock, so the merge is exact).
func (f *Fragment) sink(outs []relation.Tuple) int {
	costs := &f.rt.Costs
	switch f.Term {
	case TermBuild:
		if len(outs) == 0 {
			return 0
		}
		// Reserve before charging so a failed insert costs nothing and can
		// be retried when memory is freed.
		k := f.rt.buildInsert(f.build, outs)
		costs.CPU.Clock.Work(time.Duration(k) * costs.MoveT)
		return k
	case TermTemp:
		for _, out := range outs {
			costs.ChargeMove()
			f.Temp.Append(out)
		}
		f.rt.CountMaterialized(int64(len(outs)))
	case TermOutput:
		for _, out := range outs {
			f.rt.emitOutput(out)
		}
	case TermJoinNet:
		for i, out := range outs {
			if !f.rt.net.arrive(f.leaf.join, f.leaf.fromBuild, out) {
				return i
			}
		}
	default:
		panic("exec: unknown terminal")
	}
	return len(outs)
}

// applyTuple pushes input tuple t, slot i of the cascade's chunk, through
// the fragment's probe steps and returns the terminal-ready results; the
// first step reads the chunk's chain heads from cs.heads. All CPU costs of
// the tuple's cascade are accumulated and charged in one clock addition at
// the end: no code in the cascade reads the clock, and duration addition is
// exact, so the clock lands on the same instant as per-charge billing. The
// returned slice and its tuples live in the mediator's cascade and are
// recycled by the next applyTuple call, this fragment's or another's: sink
// every result (or strand it, which copies) before processing another input.
func (f *Fragment) applyTuple(cs *cascade, t relation.Tuple, i int) []relation.Tuple {
	costs := &f.rt.Costs
	d := costs.MoveT
	if f.QueueInput {
		d += costs.ReceiveT
	}
	cs.arena.Reset()
	cur, next := append(cs.cur[:0], t), cs.next[:0]
	for step, s := range f.steps {
		ht := s.table.ht
		next = next[:0]
		matches := 0
		if step == 0 {
			next, matches = ht.ConcatChain(next, t, cs.heads[i], &cs.arena)
		} else {
			for _, u := range cur {
				var k int
				next, k = ht.ProbeConcat(next, u, u[s.probeIdx], &cs.arena)
				matches += k
			}
		}
		d += time.Duration(len(cur))*costs.ProbeT + time.Duration(matches)*costs.ResultT
		cur, next = next, cur
		if len(cur) == 0 {
			break
		}
	}
	cs.cur, cs.next = cur, next
	costs.CPU.Clock.Work(d)
	return cur
}

// probeHeads checks once per chunk that every table the fragment probes is
// complete, then resolves the first step's chain heads for the cascade's
// chunk into cs.heads in one call. It reads only those completed tables (a
// fragment never builds a table it probes) and no clock, so it moves no
// virtual instant.
func (f *Fragment) probeHeads(cs *cascade) {
	for _, s := range f.steps {
		if !s.table.complete {
			panic(fmt.Sprintf("exec: %s probes incomplete table of J%d", f.Label, s.join.ID))
		}
	}
	cs.heads = sized(cs.heads, cs.ch.n)
	f.steps[0].table.ht.Heads(cs.ch.keys(f.steps[0].probeIdx), cs.heads)
}

// sized returns s resliced to length n, reallocated when it is too short.
func sized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// strand copies overflow-stranded outputs into the pending retry buffer;
// they must outlive the cascade arena, which the next batch of any fragment
// on the mediator reuses, so they go into the fragment's own pending arena.
// Stranding only ever starts from an empty retry buffer (ProcessBatch drains
// pending before consuming input), so resetting the arena here cannot
// invalidate live pending tuples.
func (f *Fragment) strand(outs []relation.Tuple) {
	if len(f.pending) == 0 {
		f.pendArena.Reset()
	}
	for _, o := range outs {
		f.pending = append(f.pending, f.pendArena.Append(o))
	}
}

// ProcessBatch consumes up to max input tuples at the current virtual time,
// charging all costs. It returns the number of inputs consumed and whether
// the fragment hit a memory overflow (in which case it self-suspends with
// its unsunk outputs pending and must not run again until memory is freed).
func (f *Fragment) ProcessBatch(max int) (int, bool) {
	if f.done {
		return 0, false
	}
	// Retry output stranded by a previous overflow first, one tuple at a
	// time as it was stranded: a batched reservation could spill resident
	// pages at another instant.
	for len(f.pending) > 0 {
		if f.sink(f.pending[:1]) == 0 {
			return 0, true
		}
		f.pending = f.pending[1:]
	}
	n, overflow := f.process(max)
	if !overflow && f.In.Exhausted() {
		f.finish("done", "")
	}
	return n, overflow
}

// process consumes the input in chunks: every tuple available at the chunk
// instant comes out in one pop into the mediator's cascade, up to the
// source's window or page, and the first probe step's heads are resolved for
// the whole chunk. Each slot is credited back at the virtual instant its
// processing starts, so a wrapper's window refills exactly as its tuples are
// reached. A slot the wrapper's pushdown filtered still charges its
// receive+move; any other runs the cascade into the sink. On overflow the
// unsunk outputs are stranded and the chunk's unprocessed tail goes back to
// the source. After a chunk the availability check repeats at the advanced
// clock, so tuples arriving while it was processed are picked up at once.
func (f *Fragment) process(max int) (int, bool) {
	costs := &f.rt.Costs
	filteredCharge := costs.MoveT + costs.ReceiveT
	cs := &f.rt.Med.scratch.cascade
	c := &cs.ch
	n := 0
	for n < max {
		f.In.pop(c, f.rt.Now(), max-n)
		if c.n == 0 {
			break
		}
		if len(f.steps) > 0 {
			f.probeHeads(cs)
		}
		for i := 0; i < c.n; i++ {
			f.In.Credit(f.rt.Now())
			if f.processed == 0 && f.rt.Trace.Enabled() {
				f.rt.Trace.Add(f.rt.Now(), sim.EvBatch, "%s first batch", f.Label)
			}
			f.processed++
			n++
			t := c.row(i)
			if t == nil {
				costs.CPU.Clock.Work(filteredCharge)
				continue
			}
			outs := f.applyTuple(cs, t, i)
			if k := f.sink(outs); k < len(outs) {
				f.strand(outs[k:])
				f.In.UnpopN(c.n - i - 1)
				return n, true
			}
		}
	}
	return n, false
}

// Abandon terminates the fragment with its input permanently dead — the
// partial-result path. Whatever the fragment produced stands: a build
// terminal seals its (partial) hash table so downstream fragments complete
// against it, a temp terminal closes its spill. Overflow-stranded outputs
// are dropped with the rest of the dead stream. The fragment is recorded as
// degraded on its runtime.
func (f *Fragment) Abandon() {
	if !f.done {
		f.pending = nil
		f.rt.degraded = append(f.rt.degraded, f.Label)
		f.finish("abandoned", ", input dead")
	}
}

// finish terminates the fragment: a build terminal completes its table, a
// temp terminal closes its spill, and the hash tables the fragment probed
// are released — in a tree-shaped QEP each table is probed by exactly one
// chain, so their memory is no longer needed. The trace line reads
// "<label> <verb> (<n> tuples in<detail>)".
func (f *Fragment) finish(verb, detail string) {
	switch f.Term {
	case TermBuild:
		f.rt.completeTable(f.build)
	case TermTemp:
		f.Temp.Close()
	}
	for _, s := range f.steps {
		f.rt.releaseTable(s.table)
	}
	f.done = true
	if f.rt.Trace.Enabled() { // boxing the arguments allocates even when off
		f.rt.Trace.Add(f.rt.Now(), sim.EvFragmentEnd, "%s %s (%d tuples in%s)", f.Label, verb, f.processed, detail)
	}
	if f.Term != TermTemp {
		f.rt.terminalDone()
	}
}
