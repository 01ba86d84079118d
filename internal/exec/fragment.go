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
// or its tail unpopped, and every output is sunk or stranded (gathered).
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

	// pending holds terminal-ready rows that could not be sunk because the
	// memory grant was exhausted; they are retried on resume. They are
	// gathered out of the mediator's cascade into pendArena, which grows
	// only for a fragment that strands outputs and is reset only when the
	// retry buffer has fully drained, so a repeated overflow allocates
	// nothing either.
	pending   []relation.Tuple
	pendArena relation.Arena
	processed int64
	done      bool
	// superseded marks a fragment replaced before it started: a re-plan
	// split its segment and the chain opened a new fragment at the same
	// step. It never runs again and Cancel skips it.
	superseded bool
}

// stepExec is one probe step of a fragment: its join's table, and where the
// step's probe key sits in a cascade result — column col of the fragment's
// input row when src < 0, else column col of the entry that step src
// matched. A join's Live is its probe's Live followed by its build's, so
// every column of a row entering a step is one of these.
type stepExec struct {
	table    *tableState
	src, col int
}

// inputSchemaAt returns the schema of the rows entering step i of chain c:
// the Live schema of the step's input node.
func inputSchemaAt(c *plan.Chain, i int) *relation.Schema {
	if i == 0 {
		return c.Scan.Live
	}
	return c.Joins[i-1].Live
}

// rowWidth is the width of the fragment's output rows: the Live width of
// the rows leaving its last step.
func (f *Fragment) rowWidth() int { return inputSchemaAt(f.Chain, f.ToStep).Width() }

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
	inWidth := inputSchemaAt(c, fromStep).Width()
	for k := range steps {
		j := c.Joins[fromStep+k]
		src, col := -1, inputSchemaAt(c, fromStep+k).MustIndexOf(j.ProbeKey)
		if col >= inWidth {
			col -= inWidth
			for src = 0; col >= c.Joins[fromStep+src].Build.Live.Width(); src++ {
				col -= c.Joins[fromStep+src].Build.Live.Width()
			}
		}
		steps[k] = stepExec{table: rt.table(j), src: src, col: col}
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
	temp := rt.Med.Temps.CreateSyncSized(c.MF, c.Scan.Live, rt.segmentRowsHint(c, 0, 0, true, in))
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
		in = tempSource{prev.NewReader(rt.Med.Cfg.PrefetchPages)}
	}
	if last {
		return rt.newFragment(c, label, fromStep, toStep, in, chainTerm(c), nil)
	}
	temp := rt.Med.Temps.CreateSized(label, inputSchemaAt(c, toStep), rt.segmentRowsHint(c, fromStep, toStep, queueInput, in))
	return rt.newFragment(c, label, fromStep, toStep, in, TermTemp, temp)
}

// Done reports whether the fragment has fully terminated.
func (f *Fragment) Done() bool { return f.done }

// Runtime returns the query runtime the fragment belongs to. Policies
// driving several queries need it to scope per-chain state: queries
// submitted from one workload object share plan-node pointers, so a chain
// pointer alone does not identify a chain execution.
func (f *Fragment) Runtime() *Runtime { return f.rt }

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

// sink delivers slot i's n cascade results (see probe) to the terminal in
// order, gathering each row once, straight into the storage that keeps it,
// and returns how many it delivered; fewer than n means the memory grant is
// exhausted (only possible for TermBuild and TermJoinNet). A build takes
// the slot's rows with one reservation, its move charges merged into one
// clock addition (the insert path never reads the clock, so the merge is
// exact); a temp charges each row's move before placing it, because a page
// that fills reads the clock; an output gathers a row only for a Sink.
func (f *Fragment) sink(cs *cascade, i, n int) int {
	costs, work := &f.rt.Med.Costs, f.rt.Med.Work
	per := len(f.steps)
	switch f.Term {
	case TermBuild:
		// Reserve before charging so a failed insert costs nothing and can
		// be retried when memory is freed.
		w := f.rowWidth()
		rows, k := f.rt.buildRows(f.build, w, n)
		for r := range k {
			gather(&cs.ch, i, f.steps, cs.ents[r*per:(r+1)*per], rows[r*w:(r+1)*w], 1)
		}
		costs.Clock.Work(time.Duration(k) * costs.MoveT)
		work.ValuesCopied += int64(k * w)
		return k
	case TermTemp:
		for r := range n {
			costs.ChargeMove()
			vals, stride := f.Temp.Slot()
			gather(&cs.ch, i, f.steps, cs.ents[r*per:(r+1)*per], vals, stride)
		}
		f.rt.matTuples += int64(n)
		work.ValuesCopied += int64(n * f.rowWidth())
	case TermOutput:
		for r := range n {
			if row := f.rt.emitOutput(); row != nil {
				gatherAt(&cs.ch, i, f.steps, cs.ents[r*per:(r+1)*per], row, f.rt.Dec.LiveAt)
				f.rt.stream(row)
			}
		}
	case TermJoinNet:
		if !f.rt.net.feed(f.leaf, &cs.ch, i) {
			return 0
		}
	default:
		panic("exec: unknown terminal")
	}
	return n
}

// retry delivers one row a memory overflow stranded, as sink would have
// delivered it, and reports whether it went in. Only a build or a join
// network strands.
func (f *Fragment) retry(row relation.Tuple) bool {
	if f.Term == TermJoinNet {
		return f.rt.net.arrive(f.leaf.join, f.leaf.fromBuild, row, nil)
	}
	dst, k := f.rt.buildRows(f.build, len(row), 1)
	if k == 0 {
		return false
	}
	copy(dst, row)
	f.rt.Med.Costs.ChargeMove()
	f.rt.Med.Work.ValuesCopied += int64(len(row))
	return true
}

// gather writes a cascade result of chunk slot i — the slot's row followed
// by the entry that each of steps matched, ents — into dst, value j at
// dst[j*stride].
func gather(c *chunk, i int, steps []stepExec, ents []int32, dst []int64, stride int) {
	at := 0
	for _, col := range c.cols {
		dst[at] = col[i]
		at += stride
	}
	for s, e := range ents {
		for _, v := range steps[s].table.ht.Entry(e) {
			dst[at] = v
			at += stride
		}
	}
}

// gatherAt is gather with value j at dst[pos[j]]: a Sink's full-width row.
func gatherAt(c *chunk, i int, steps []stepExec, ents []int32, dst []int64, pos []int) {
	j := 0
	for _, col := range c.cols {
		dst[pos[j]] = col[i]
		j++
	}
	for s, e := range ents {
		for _, v := range steps[s].table.ht.Entry(e) {
			dst[pos[j]] = v
			j++
		}
	}
}

// probe runs slot i of the cascade's chunk through the fragment's probe
// steps to build-entry indices and returns the slot's result count n:
// result r matched entry cs.ents[r*len(f.steps)+s] at step s, and the
// results come in breadth-first order — by the first step's match, then
// the second's, and so on. The first step walks the chain head cs.heads[i];
// a later step keyed on the input row resolves and walks the slot's key
// once for all results; any other reads each result's probe key through
// the step's column map, resolves the keys with one Heads call and walks
// their chains. A zero-step
// fragment's one result is the slot itself. All CPU costs of the slot are
// summed and charged in one clock addition at the end: no code in the
// cascade reads the clock, and duration addition is exact, so the clock
// lands on the same instant as per-charge billing. The results live in the
// mediator's cascade until the next probe call, this fragment's or
// another's: sink them (or strand them, which gathers) first.
func (f *Fragment) probe(cs *cascade, i int) int {
	costs, work := &f.rt.Med.Costs, f.rt.Med.Work
	d := costs.MoveT
	if f.QueueInput {
		d += costs.ReceiveT
	}
	n, ents := 1, cs.ents[:0]
	for s, st := range f.steps {
		matches := 0
		ht := st.table.ht
		next := cs.next[:0]
		switch {
		case s == 0:
			next = ht.Chain(next, cs.heads[i])
			matches = len(next)
		case st.src < 0:
			// Every result carries the slot's own key: resolve and walk it
			// once, and extend each result by the same walk.
			cs.walk = ht.Chain(cs.walk[:0], ht.Head(cs.ch.keys(st.col)[i]))
			for r := range n {
				for _, e := range cs.walk {
					next = append(append(next, ents[r*s:(r+1)*s]...), e)
				}
			}
			matches = n * len(cs.walk)
			work.HeadLookups++
		default:
			keys, heads := sized(cs.keys, n), sized(cs.subs, n)
			for r := range n {
				keys[r] = f.steps[st.src].table.ht.Entry(ents[r*s+st.src])[st.col]
			}
			ht.Heads(keys, heads)
			for r, h := range heads {
				cs.walk = ht.Chain(cs.walk[:0], h)
				matches += len(cs.walk)
				for _, e := range cs.walk {
					next = append(append(next, ents[r*s:(r+1)*s]...), e)
				}
			}
			cs.keys, cs.subs = keys, heads
			work.HeadLookups += int64(n)
		}
		d += time.Duration(n)*costs.ProbeT + time.Duration(matches)*costs.ResultT
		work.ChainSteps += int64(matches)
		cs.ents, cs.next = next, ents
		n, ents = matches, next
		if n == 0 {
			break
		}
	}
	costs.Clock.Work(d)
	return n
}

// probeHeads checks once per chunk that every table the fragment probes is
// complete, then resolves the first step's chain heads for the cascade's
// chunk into cs.heads in one call. It reads only those completed tables (a
// fragment never builds a table it probes) and no clock, so it moves no
// virtual instant.
func (f *Fragment) probeHeads(cs *cascade) {
	for _, s := range f.steps {
		if !s.table.complete {
			panic(fmt.Sprintf("exec: %s probes incomplete table of J%d", f.Label, s.table.join.ID))
		}
	}
	cs.heads = sized(cs.heads, cs.ch.n)
	f.rt.Med.Work.HeadLookups += int64(cs.ch.n)
	f.steps[0].table.ht.Heads(cs.ch.keys(f.steps[0].col), cs.heads)
}

// sized returns s resliced to length n, reallocated when it is too short.
func sized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// strand gathers slot i's overflow-stranded cascade results [from, n) into
// the pending retry buffer: they must outlive the cascade, which the next
// batch of any fragment on the mediator reuses, so they go into the
// fragment's own pending arena. Stranding only ever starts from an empty
// retry buffer (ProcessBatch drains pending before consuming input), so
// resetting the arena here cannot invalidate live pending rows.
func (f *Fragment) strand(cs *cascade, i, from, n int) {
	if len(f.pending) == 0 {
		f.pendArena.Reset()
	}
	w, per := f.rowWidth(), len(f.steps)
	for r := from; r < n; r++ {
		row := f.pendArena.Extend(w)
		gather(&cs.ch, i, f.steps, cs.ents[r*per:(r+1)*per], row, 1)
		f.pending = append(f.pending, row)
	}
	f.rt.Med.Work.ValuesCopied += int64((n - from) * w)
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
		if !f.retry(f.pending[0]) {
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

// process consumes the input in chunks borrowed from the source's ring run
// or page, resolving the first probe step's heads per chunk. A slot is
// credited with the instant its processing started, so a wrapper's window
// refills as its tuples are reached, but only once its results are sunk or
// stranded: an eager wrapper may refill the credited slot. A filtered slot
// still charges its receive+move; any other is probed to entry indices,
// whose rows the sink gathers. On overflow the unsunk results are stranded
// and the chunk's tail goes back to the source.
func (f *Fragment) process(max int) (int, bool) {
	costs := &f.rt.Med.Costs
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
			at := f.rt.Now()
			if f.processed == 0 && f.rt.Med.Trace.Enabled() {
				f.rt.Med.Trace.Add(at, sim.EvBatch, "%s first batch", f.Label)
			}
			f.processed++
			n++
			if c.pass != nil && !c.pass[i] {
				costs.Clock.Work(filteredCharge)
			} else if m := f.probe(cs, i); m > 0 {
				if k := f.sink(cs, i, m); k < m {
					f.strand(cs, i, k, m)
					f.In.Credit(at)
					f.In.UnpopN(c.n - i - 1)
					return n, true
				}
			}
			f.In.Credit(at)
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
	if f.rt.Med.Trace.Enabled() { // boxing the arguments allocates even when off
		f.rt.Med.Trace.Add(f.rt.Now(), sim.EvFragmentEnd, "%s %s (%d tuples in%s)", f.Label, verb, f.processed, detail)
	}
	if f.Term != TermTemp {
		f.rt.terminalDone()
	}
}
