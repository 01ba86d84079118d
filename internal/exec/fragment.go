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
// process a batch, switch away, and come back with no loss.
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
	// leaf is the join-network entry point when Term == TermJoinNet.
	leaf *symLeaf

	steps []stepExec

	// Per-batch scratch storage, reused across input tuples: curBuf/nextBuf
	// hold the intermediate tuple headers of the probe cascade, arena backs
	// the concatenated tuple values. Both sinks (hash-table insert, temp
	// append) copy, so recycling the scratch between input tuples is safe.
	curBuf, nextBuf []relation.Tuple
	arena           relation.Arena

	// pending holds terminal-ready tuples that could not be sunk because
	// the memory grant was exhausted; they are retried on resume. Pending
	// tuples are copied out of the scratch arena into pendArena, which is
	// reset only when the retry buffer has fully drained, so the overflow
	// path allocates nothing in steady state either.
	pending   []relation.Tuple
	pendArena relation.Arena
	processed int64
	done      bool
	// superseded marks a fragment replaced before it started: a re-plan
	// split its segment and the chain opened a new fragment at the same
	// step. It never runs again and Cancel skips it.
	superseded bool

	// Row input state (temp-fed fragments): tempIn is the reader behind In,
	// popBuf stages bulk-popped input tuples between PopN and processing.
	tempIn *mem.Reader
	popBuf []relation.Tuple

	// Columnar input state (wrapper-fed fragments). colIn is the batch
	// protocol view of In; gatherAt maps batch columns to their full-schema
	// positions in rowBuf, the reused scan-width processing row whose dead
	// (projected-away) positions stay permanently zero.
	colIn    *queueSource
	gatherAt []int
	rowBuf   relation.Tuple
	colBatch *relation.Batch
	passBuf  []bool

	// Chunk probe state, used only with probe steps: heads holds the first
	// step's chain heads for the popped chunk, resolved in one call; keys
	// stages a temp-fed chunk's probe keys for it, while a wrapper-fed
	// chunk's keys are already batch column keyCol.
	keys   []int64
	heads  []int32
	keyCol int
}

type stepExec struct {
	join     *plan.Node
	table    *tableState
	probeIdx int
}

// inputSchemaAt returns the tuple schema entering step i of chain c.
func inputSchemaAt(c *plan.Chain, i int) *relation.Schema {
	if i == 0 {
		return c.Scan.Schema
	}
	return c.Joins[i-1].Schema
}

// newFragment builds a fragment over chain steps [fromStep, toStep), fed by
// the chain's wrapper queue or by a temp reader.
func (rt *Runtime) newFragment(c *plan.Chain, label string, fromStep, toStep int, in TupleSource, term TerminalKind, temp *mem.Temp) *Fragment {
	if fromStep < 0 || toStep > len(c.Joins) || fromStep > toStep {
		panic(fmt.Sprintf("exec: bad fragment step range [%d,%d) for %s", fromStep, toStep, c.Name))
	}
	f := &Fragment{
		rt:       rt,
		Chain:    c,
		Label:    label,
		FromStep: fromStep,
		ToStep:   toStep,
		In:       in,
		Term:     term,
		Temp:     temp,
	}
	for i := fromStep; i < toStep; i++ {
		j := c.Joins[i]
		f.steps = append(f.steps, stepExec{
			join:     j,
			table:    rt.table(j),
			probeIdx: inputSchemaAt(c, i).MustIndexOf(j.ProbeKey),
		})
	}
	for _, g := range rt.frags {
		if g.Chain == c && g.FromStep == fromStep && g.processed == 0 && !g.done {
			g.superseded = true
		}
	}
	s := rt.Med.scratch
	f.arena.Recycle(s.GetInts())
	f.pendArena.Recycle(s.GetInts())
	f.curBuf = s.GetTuples()
	f.nextBuf = s.GetTuples()
	if len(f.steps) > 0 {
		f.heads = s.GetHeads()
	}
	if qs, ok := in.(*queueSource); ok {
		f.QueueInput, f.colIn = true, qs
		f.gatherAt = rt.colPush[c.Scan.Rel.Name].keep
		f.rowBuf = make(relation.Tuple, c.Scan.Schema.Width())
		f.colBatch = s.GetBatch(len(f.gatherAt))
		f.passBuf = s.GetBools()
		if len(f.steps) > 0 {
			// The first probe key is live on the wire (liveColumns keeps
			// every join key), so exactly one batch column maps to it.
			for col, at := range f.gatherAt {
				if at == f.steps[0].probeIdx {
					f.keyCol = col
				}
			}
		}
	} else {
		f.tempIn = in.(tempSource).Reader
		f.popBuf = s.GetTuples()
		if len(f.steps) > 0 {
			f.keys = s.GetKeys()
		}
	}
	rt.frags = append(rt.frags, f)
	return f
}

// NewPCFragment creates the fragment executing the whole pipeline chain.
func (rt *Runtime) NewPCFragment(c *plan.Chain) *Fragment {
	term := TermOutput
	if c.BuildsFor != nil {
		term = TermBuild
	}
	return rt.newFragment(c, c.Name, 0, len(c.Joins), rt.qsrcs[c.Scan.Rel.Name], term, nil)
}

// NewMFSync creates the materialization fragment of a chain (wrapper input,
// first scan applied, output spilled to a fresh temp; §4.4) with
// synchronous page writes: the materializing strategy holds the CPU for
// every transfer, as a strategy implemented on the classic iterator engine
// (materialize-all) does. The paper's DSE explicitly assumes asynchronous
// I/O for its fragments (NewSegment); MA does not.
func (rt *Runtime) NewMFSync(c *plan.Chain) *Fragment {
	in := rt.qsrcs[c.Scan.Rel.Name]
	temp := rt.Temps.CreateSyncSized("MF("+c.Name+")", c.Scan.Schema, rt.segmentRowsHint(c, 0, 0, true, in))
	return rt.newFragment(c, "MF("+c.Name+")", 0, 0, in, TermTemp, temp)
}

// NewCFSync creates the complement fragment over a completed MF's temp,
// with synchronous page reads (no prefetch overlap).
func (rt *Runtime) NewCFSync(c *plan.Chain, temp *mem.Temp) *Fragment {
	term := TermOutput
	if c.BuildsFor != nil {
		term = TermBuild
	}
	in := tempSource{temp.NewSyncReader()}
	return rt.newFragment(c, "CF("+c.Name+")", 0, len(c.Joins), in, term, nil)
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
		label = "MF(" + c.Name + ")"
	case !queueInput && fromStep == 0 && last:
		label = "CF(" + c.Name + ")"
	default:
		label = fmt.Sprintf("%s[%d:%d]", c.Name, fromStep, toStep)
	}
	var in TupleSource
	if queueInput {
		in = rt.qsrcs[c.Scan.Rel.Name]
	} else {
		in = tempSource{prev.NewReader(rt.Cfg.PrefetchPages)}
	}
	if last {
		term := TermOutput
		if c.BuildsFor != nil {
			term = TermBuild
		}
		return rt.newFragment(c, label, fromStep, toStep, in, term, nil)
	}
	temp := rt.Temps.CreateSized(label, inputSchemaAt(c, toStep),
		rt.segmentRowsHint(c, fromStep, toStep, queueInput, in))
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

// sink delivers one terminal-ready tuple; false means the memory grant is
// exhausted (only possible for TermBuild and TermJoinNet).
func (f *Fragment) sink(out relation.Tuple) bool {
	switch f.Term {
	case TermBuild:
		// Reserve before charging so a failed insert costs nothing and can
		// be retried when memory is freed.
		if !f.rt.buildInsert(f.Chain.BuildsFor, out) {
			return false
		}
		f.rt.Costs.ChargeMove()
		return true
	case TermTemp:
		f.rt.Costs.ChargeMove()
		f.Temp.Append(out)
		f.rt.CountMaterialized(1)
		return true
	case TermOutput:
		f.rt.emitOutput(out)
		return true
	case TermJoinNet:
		return f.rt.net.arrive(f.leaf.join, f.leaf.fromBuild, out)
	default:
		panic("exec: unknown terminal")
	}
}

// applyTuple pushes one input tuple through the fragment's probe steps and
// returns the terminal-ready results. heads holds the first step's chain
// heads for the tuple's chunk (nil without probe steps) and i is the tuple's
// position in it. All CPU costs of the tuple's cascade are accumulated and
// charged in one clock addition at the end: no code in the cascade reads the
// clock, and duration addition is exact, so the clock lands on the same
// instant as per-charge billing. The returned slice and its tuples live in
// the fragment's scratch buffers and are recycled by the next applyTuple
// call: sink every result (or copy it out) before processing another input.
func (f *Fragment) applyTuple(t relation.Tuple, heads []int32, i int) []relation.Tuple {
	costs := &f.rt.Costs
	d := costs.MoveT
	if f.QueueInput {
		d += costs.ReceiveT
	}
	f.arena.Reset()
	cur, next := append(f.curBuf[:0], t), f.nextBuf[:0]
	for step, s := range f.steps {
		ht := s.table.ht
		next = next[:0]
		matches := 0
		if step == 0 {
			next, matches = ht.ConcatChain(next, t, heads[i], &f.arena)
		} else {
			for _, u := range cur {
				var k int
				next, k = ht.ProbeConcat(next, u, u[s.probeIdx], &f.arena)
				matches += k
			}
		}
		d += time.Duration(len(cur))*costs.ProbeT + time.Duration(matches)*costs.ResultT
		cur, next = next, cur
		if len(cur) == 0 {
			break
		}
	}
	f.curBuf, f.nextBuf = cur, next
	costs.CPU.Clock.Work(d)
	return cur
}

// probeHeads checks once per chunk that every table the fragment probes is
// complete, then resolves the first step's chain heads for the chunk's
// probe keys in one call. It reads only those completed tables (a fragment
// never builds a table it probes) and no clock, so it moves no virtual
// instant.
func (f *Fragment) probeHeads(keys []int64) []int32 {
	for _, s := range f.steps {
		if !s.table.complete {
			panic(fmt.Sprintf("exec: %s probes incomplete table of J%d", f.Label, s.join.ID))
		}
	}
	f.heads = sized(f.heads, len(keys))
	f.steps[0].table.ht.Heads(keys, f.heads)
	return f.heads
}

// sized returns s resliced to length n, reallocated when it is too short.
func sized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// sinkAll delivers a tuple's terminal-ready outputs. Build terminals go
// through the bulk insert path: one memory reservation and one hash-table
// batch append for the whole run, with the per-tuple move charges merged
// into a single clock addition (the insert path never reads the clock, so
// the merge is exact). It returns false on memory overflow, with the unsunk
// suffix copied to pending.
func (f *Fragment) sinkAll(outs []relation.Tuple) bool {
	if f.Term == TermBuild && len(outs) > 1 {
		k := f.rt.buildInsertBatch(f.Chain.BuildsFor, outs)
		f.rt.Costs.CPU.Clock.Work(time.Duration(k) * f.rt.Costs.MoveT)
		if k < len(outs) {
			f.strand(outs[k:])
			return false
		}
		return true
	}
	for i, out := range outs {
		if !f.sink(out) {
			f.strand(outs[i:])
			return false
		}
	}
	return true
}

// strand copies overflow-stranded outputs into the pending retry buffer;
// they must outlive the per-tuple scratch arena, so they go into the
// fragment's dedicated pending arena. Stranding only ever starts from an
// empty retry buffer (ProcessBatch drains pending before consuming input),
// so resetting the arena here cannot invalidate live pending tuples.
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
	// Retry output stranded by a previous overflow first.
	for len(f.pending) > 0 {
		if !f.sink(f.pending[0]) {
			return 0, true
		}
		f.pending = f.pending[1:]
	}
	var n int
	var overflow bool
	if f.colIn != nil {
		n, overflow = f.processColumnar(max)
	} else {
		n, overflow = f.processBulk(max)
	}
	if overflow {
		return n, true
	}
	f.maybeFinish()
	return n, false
}

// processBulk consumes a temp reader's rows in bulk chunks: every tuple
// available at the chunk instant (up to the page edge) is removed from the
// reader in one PopN and processed in order. After a chunk the availability
// check repeats at the advanced clock, so pages whose reads completed while
// a chunk was processed are picked up at once.
func (f *Fragment) processBulk(max int) (int, bool) {
	n := 0
	for n < max {
		now := f.rt.Now()
		f.popBuf = sized(f.popBuf, max-n)
		k := f.tempIn.PopN(now, f.popBuf)
		if k == 0 {
			break
		}
		buf := f.popBuf[:k]
		var heads []int32
		if len(f.steps) > 0 {
			f.keys = sized(f.keys, k)
			for i, t := range buf {
				f.keys[i] = t[f.steps[0].probeIdx]
			}
			heads = f.probeHeads(f.keys)
		}
		for i, t := range buf {
			if f.processed == 0 {
				f.rt.Trace.Add(f.rt.Now(), sim.EvBatch, "%s first batch", f.Label)
			}
			f.processed++
			n++
			if !f.sinkAll(f.applyTuple(t, heads, i)) {
				f.tempIn.UnpopN(k - i - 1)
				return n, true
			}
		}
	}
	return n, false
}

// processColumnar consumes a wrapper queue in bulk chunks: every slot
// arrived at the chunk instant comes out in one PopBatch as flat column runs
// plus a pass mask, and each is credited back at the virtual instant its
// processing starts, so the window refills exactly as the tuples are
// reached. A filtered slot (predicate already applied wrapper-side) still
// charges its receive+move; a passing slot is gathered into the reused
// full-width row (dead columns stay zero) and runs the cascade. After a
// chunk the availability check repeats at the advanced clock, so refills
// arriving while a chunk was processed are picked up at once.
func (f *Fragment) processColumnar(max int) (int, bool) {
	costs := &f.rt.Costs
	filteredCharge := costs.MoveT + costs.ReceiveT
	n := 0
	for n < max {
		now := f.rt.Now()
		f.passBuf = sized(f.passBuf, max-n)
		pass := f.passBuf
		f.colBatch.Reset(len(f.gatherAt))
		k := f.colIn.PopBatch(now, f.colBatch, pass)
		if k == 0 {
			break
		}
		var heads []int32
		if len(f.steps) > 0 {
			heads = f.probeHeads(f.colBatch.Col(f.keyCol))
		}
		for i := 0; i < k; i++ {
			f.In.Credit(f.rt.Now())
			if f.processed == 0 {
				f.rt.Trace.Add(f.rt.Now(), sim.EvBatch, "%s first batch", f.Label)
			}
			f.processed++
			n++
			if !pass[i] {
				costs.CPU.Clock.Work(filteredCharge)
				continue
			}
			f.colBatch.Gather(i, f.rowBuf, f.gatherAt)
			if !f.sinkAll(f.applyTuple(f.rowBuf, heads, i)) {
				f.In.UnpopN(k - i - 1)
				return n, true
			}
		}
	}
	return n, false
}

// maybeFinish completes the fragment when its input is exhausted.
func (f *Fragment) maybeFinish() {
	if f.done || len(f.pending) > 0 || !f.In.Exhausted() {
		return
	}
	switch f.Term {
	case TermBuild:
		f.rt.completeTable(f.Chain.BuildsFor)
	case TermTemp:
		f.Temp.Close()
	}
	// The hash tables this fragment probed are now fully consumed: in a
	// tree-shaped QEP each table is probed by exactly one chain, so their
	// memory can be released.
	for _, s := range f.steps {
		f.rt.releaseTable(s.join)
	}
	f.done = true
	f.rt.Trace.Add(f.rt.Now(), sim.EvFragmentEnd, "%s done (%d tuples in)", f.Label, f.processed)
}

// Abandon terminates the fragment with its input permanently dead — the
// partial-result path. Whatever the fragment produced stands: a build
// terminal seals its (partial) hash table so downstream fragments complete
// against it, a temp terminal closes its spill. Overflow-stranded outputs
// are dropped with the rest of the dead stream. The fragment is recorded as
// degraded on its runtime.
func (f *Fragment) Abandon() {
	if f.done {
		return
	}
	f.pending = nil
	switch f.Term {
	case TermBuild:
		f.rt.completeTable(f.Chain.BuildsFor)
	case TermTemp:
		f.Temp.Close()
	}
	for _, s := range f.steps {
		f.rt.releaseTable(s.join)
	}
	f.done = true
	f.rt.degraded = append(f.rt.degraded, f.Label)
	f.rt.Trace.Add(f.rt.Now(), sim.EvFragmentEnd, "%s abandoned (%d tuples in, input dead)", f.Label, f.processed)
}
