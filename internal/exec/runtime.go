package exec

import (
	"fmt"
	"time"

	"dqs/internal/mem"
	"dqs/internal/operator"
	"dqs/internal/plan"
	"dqs/internal/relation"
	"dqs/internal/sim"
	"dqs/internal/source"
)

// Runtime is one query execution in flight on a Mediator: the query's plan
// decomposition, its wrapper sources and its hash-table registry. The
// clock, disk, memory pool and communication manager are the mediator's —
// shared with any concurrently attached queries. Every strategy (SEQ, MA,
// SCR, DSE, DPHJ) drives a Runtime; constructing a fresh Mediator per measured
// run keeps runs independent and deterministic.
type Runtime struct {
	Med *Mediator
	// Label scopes this query's wrapper names inside the shared CM; empty
	// for single-query executions.
	Label string

	Cfg   Config
	Clock *sim.Clock
	Disk  *sim.Disk
	Costs operator.Costs
	Mem   *mem.Manager
	Temps *mem.TempStore
	Root  *plan.Node
	Dec   *plan.Decomposition
	Trace *sim.Trace

	// inputs holds each chain's wrapper by Chain.ID, and tables each join's
	// hash table in Dec.Joins order: one slab each per query, never grown,
	// so a pointer into either stays valid while the runtime lives.
	inputs []input
	tables []tableState
	// frags lists every fragment in creation order. Fragments and their
	// steps are carved from fragRoom and stepRoom, what is left of the
	// query's fragment slabs (see carve).
	frags    []*Fragment
	fragRoom []Fragment
	stepRoom []stepExec
	net      *symNet // the DPHJ join network, nil under every other strategy

	outputRows int64
	matTuples  int64
	degraded   []string

	// firstOut and the milestone ring track the output tuple timeline:
	// firstOut is when result tuple #1 appeared; milestones[i] is when tuple
	// number 2^i appeared. A fixed array (2^39 tuples outruns any workload
	// here) keeps the hot emit path allocation-free.
	firstOut   time.Duration
	milestones [40]time.Duration
	milestoneN int

	// sinkRow is the full-width row a Sink is handed, its live values at
	// Dec.LiveAt and zero elsewhere, made at the first emit to a Sink.
	sinkRow relation.Tuple

	// completedAt is the instant every chain finished or the query was
	// cancelled; completed says it has been recorded.
	completedAt time.Duration
	completed   bool
}

// input is one chain's wrapper: its primary source, and the queue the source
// fills as the TupleSource of the chain's wrapper-fed fragments, whose
// producer a failover replaces.
type input struct {
	src *source.Source
	qs  queueSource
}

// tableState tracks one join's hash table through its life cycle.
type tableState struct {
	join     *plan.Node
	ht       *operator.HashTable
	rows     int64
	complete bool
	released bool
	// holder names this table's reservations in the grant's ledger.
	holder mem.HolderID
}

// NewRuntime assembles a fresh mediator running a single query: the plan
// rooted at root over the given dataset, with per-wrapper delivery
// behaviour taken from deliveries (missing entries mean instantaneous
// delivery).
func NewRuntime(cfg Config, root *plan.Node, ds relation.Dataset, deliveries map[string]Delivery) (*Runtime, error) {
	med, err := NewMediator(cfg)
	if err != nil {
		return nil, err
	}
	return med.AddQuery("", root, ds, deliveries)
}

// Now returns the current virtual time.
func (rt *Runtime) Now() time.Duration { return rt.Clock.Now() }

// Source returns the simulated wrapper of a relation.
func (rt *Runtime) Source(rel string) *source.Source {
	c, ok := rt.Dec.ChainOf(rel)
	if !ok {
		return nil
	}
	return rt.inputs[c.ID].src
}

// queueIn returns chain c's wrapper queue, as its fragments read it.
func (rt *Runtime) queueIn(c *plan.Chain) *queueSource { return &rt.inputs[c.ID].qs }

// table returns the registry entry of a join.
func (rt *Runtime) table(j *plan.Node) *tableState {
	for i := range rt.tables {
		if ts := &rt.tables[i]; ts.join.ID == j.ID {
			return ts
		}
	}
	panic(fmt.Sprintf("exec: no table registered for join J%d", j.ID))
}

// TableComplete reports whether the hash table of join j has been fully
// built.
func (rt *Runtime) TableComplete(j *plan.Node) bool { return rt.table(j).complete }

// TableRows returns the exact number of tuples built into join j's table so
// far (final once the table is complete; preserved after release).
func (rt *Runtime) TableRows(j *plan.Node) int64 { return rt.table(j).rows }

// TableReserved returns the memory currently reserved by join j's table.
func (rt *Runtime) TableReserved(j *plan.Node) int64 { return rt.Mem.Held(rt.table(j).holder) }

// TableReleased reports whether join j's table memory has been released.
func (rt *Runtime) TableReleased(j *plan.Node) bool { return rt.table(j).released }

// EstBuildBytes returns the estimated memory a chain's terminal build will
// consume (zero for output-terminated chains).
func (rt *Runtime) EstBuildBytes(c *plan.Chain) int64 {
	if c.BuildsFor == nil {
		return 0
	}
	return int64(c.Root().EstRows) * int64(rt.Cfg.Params.TupleSize)
}

// buildInsert adds a run of tuples to a join's table with one memory
// reservation and one bulk hash-table append, returning how many tuples
// made it in. When the single reservation fails — the grant is nearly
// exhausted — it falls back to tuple-at-a-time reservation to find the
// exact overflow boundary inserting one tuple at a time finds; memory
// accounting (including the peak) is identical either way because the
// reservations sum to the same total with no interleaved releases.
func (rt *Runtime) buildInsert(state *tableState, ts []relation.Tuple) int {
	if state.complete {
		panic(fmt.Sprintf("exec: insert into completed table of J%d", state.join.ID))
	}
	n := int64(rt.Cfg.Params.TupleSize)
	if rt.Mem.Reserve(state.holder, n*int64(len(ts))) {
		state.ht.InsertBatch(ts)
		state.rows += int64(len(ts))
		return len(ts)
	}
	for i, t := range ts {
		if !rt.Mem.Reserve(state.holder, n) {
			return i
		}
		state.ht.Insert(t)
		state.rows++
	}
	return len(ts)
}

// maxReserveRows caps pre-size hints so a wildly skewed estimate (or a hint
// recorded under a different workload scale) cannot demand an absurd
// up-front allocation; builds beyond the cap just grow amortized.
const maxReserveRows = 1 << 22

// clampReserveRows converts a cardinality hint into a safe Reserve argument.
func clampReserveRows(rows int64) int {
	if rows < 0 {
		return 0
	}
	if rows > maxReserveRows {
		return maxReserveRows
	}
	return int(rows)
}

// completeTable marks a join's table as fully built and records its exact
// cardinality as the pre-size hint for the next run of this plan on the same
// scratch.
func (rt *Runtime) completeTable(ts *tableState) {
	ts.complete = true
	rt.Med.scratch.recordBuildRows(ts.join.ID, ts.rows)
}

// releaseTable frees the memory of a join's table once its probing fragment
// has fully consumed it. Releasing twice is a no-op (split fragments may
// both reach the release point of already-released lower tables).
func (rt *Runtime) releaseTable(ts *tableState) {
	if ts.released {
		return
	}
	rt.Mem.Release(ts.holder, rt.Mem.Held(ts.holder))
	ts.released = true
	// The table's storage goes back to the pool right away: nothing aliases
	// it (probe results are copied into the cascade arena), so a query the
	// server admits later in this run may be handed it.
	rt.Med.scratch.putTable(ts.ht)
	ts.ht = nil
}

// SetSink routes this runtime's result stream to sink (nil disconnects).
// Per-query sinks of a multi-query service are wired right after AddQuery,
// before the first tuple can be produced; streaming is observation-only, so
// results are identical with or without one.
func (rt *Runtime) SetSink(sink Sink) { rt.Cfg.Stream = sink }

// Cancel abandons the query mid-run under any strategy and releases what it
// holds on the shared mediator. Chain by chain in decomposition order, each
// fragment of an unfinished chain is abandoned and its temp dropped, in
// creation order; finished chains keep their temps, because dropping one
// evicts the disk's cached pages, and superseded fragments were never part
// of the query. Then the hash tables return their grant, and the query
// completes at the cancel instant, leaving the mediator as a finished query
// does (see complete). Idempotent.
func (rt *Runtime) Cancel() {
	for _, c := range rt.Dec.Chains {
		if rt.ChainFinished(c) {
			continue
		}
		for _, f := range rt.frags {
			if f.Chain != c || f.superseded {
				continue
			}
			f.Abandon()
			if f.Temp != nil {
				f.Temp.Drop()
			}
		}
	}
	// In ascending join ID: the next table is the lowest ID above the last.
	last := -1
	for range rt.tables {
		var next *tableState
		for i := range rt.tables {
			if ts := &rt.tables[i]; ts.join.ID > last && (next == nil || ts.join.ID < next.join.ID) {
				next = ts
			}
		}
		rt.releaseTable(next)
		last = next.join.ID
	}
	rt.complete()
}

// ChainFinished reports whether a fragment delivering chain c's real
// terminal — its build, the query output or a join-network feed, anything
// but a temp — has finished or been abandoned.
func (rt *Runtime) ChainFinished(c *plan.Chain) bool {
	for _, f := range rt.frags {
		if f.Chain == c && f.done && f.Term != TermTemp {
			return true
		}
	}
	return false
}

// terminalDone is called when a fragment delivering its chain's real
// terminal finishes or is abandoned: once every chain has finished, the
// query is complete.
func (rt *Runtime) terminalDone() {
	for _, c := range rt.Dec.Chains {
		if !rt.ChainFinished(c) {
			return
		}
	}
	rt.complete()
}

// complete records the query's completion instant — its response time —
// and, finished or cancelled, leaves the shared mediator: chain by chain its
// wrapper is detached (late credits pump nothing; a shared-stream tap drops
// its refcount) and its queue leaves the CM, so it interrupts no survivor.
// The DPHJ join network returns its grant. Idempotent.
func (rt *Runtime) complete() {
	if rt.completed {
		return
	}
	rt.completed, rt.completedAt = true, rt.Now()
	for i := range rt.inputs {
		in := &rt.inputs[i]
		in.src.Detach()
		in.qs.q.ClearProducer()
		rt.Med.CM.Drop(in.qs.q)
	}
	if rt.net != nil {
		rt.net.release(rt.Med.scratch)
	}
	if rt.Trace.Enabled() {
		rt.Trace.Add(rt.completedAt, sim.EvPhase, "query %q complete", rt.Label)
	}
}

// CompletedAt returns the instant the query completed — every chain
// finished, or the query was cancelled — and whether it has.
func (rt *Runtime) CompletedAt() (time.Duration, bool) { return rt.completedAt, rt.completed }

// reclaim hands the runtime's pooled structures back to s: surviving hash
// tables, a join network an aborted run left, and every input's queue and
// wrapper staging. It takes s because Mediator.Reclaim has already cleared
// its own.
func (rt *Runtime) reclaim(s *scratch) {
	for i := range rt.tables {
		ts := &rt.tables[i]
		s.putTable(ts.ht) // nil once released
		ts.ht = nil
	}
	if rt.net != nil {
		rt.net.release(s)
	}
	for i := range rt.inputs {
		qs := &rt.inputs[i].qs
		s.putQueue(qs.q)
		qs.src.Release()
	}
	rt.frags = nil
}

// emitOutput accounts one result tuple, a row of the output's Live width,
// leaving the engine: the output count, the first-tuple time and
// power-of-two timeline milestones, and streaming delivery to the
// configured sink, which sees the tuple at the virtual instant it was
// produced, widened to the output's full schema with zero at every
// position the plan never reads.
func (rt *Runtime) emitOutput(out relation.Tuple) {
	rt.outputRows++
	if n := rt.outputRows; n&(n-1) == 0 { // power of two: milestone tuple
		now := rt.Clock.Now()
		if rt.milestoneN < len(rt.milestones) {
			rt.milestones[rt.milestoneN] = now
			rt.milestoneN++
		}
		if n == 1 {
			rt.firstOut = now
			rt.Trace.Add(now, sim.EvFirstTuple, "first result tuple delivered")
		}
	}
	if rt.Cfg.Stream != nil {
		if rt.sinkRow == nil {
			rt.sinkRow = make(relation.Tuple, rt.Root.Schema.Width())
		}
		for i, p := range rt.Dec.LiveAt {
			rt.sinkRow[p] = out[i]
		}
		rt.Cfg.Stream.Emit(rt.Clock.Now(), rt.sinkRow)
	}
}

// timeline snapshots the milestone record for Result.
func (rt *Runtime) timeline() []time.Duration {
	if rt.milestoneN == 0 {
		return nil
	}
	tl := make([]time.Duration, rt.milestoneN)
	copy(tl, rt.milestones[:rt.milestoneN])
	return tl
}

// predSelectivity returns the estimated surviving fraction of a chain's
// pushed-down predicate (1 when absent).
func predSelectivity(c *plan.Chain) float64 {
	if c.Scan.Rel.Cardinality == 0 {
		return 1
	}
	return c.Scan.EstRows / float64(c.Scan.Rel.Cardinality)
}

// stepFanout returns the expected output tuples per probe-input tuple of
// join j.
func stepFanout(j *plan.Node) float64 {
	if j.Probe.EstRows <= 0 {
		return 0
	}
	return j.EstRows / j.Probe.EstRows
}

// segmentRowsHint estimates how many tuples a materializing segment over
// chain steps [fromStep, toStep) will spill: the exact unconsumed input
// count (the source's remaining rows at creation time — runtime observation,
// not an estimate) scaled by the optimizer's pushed-down-predicate
// selectivity and per-step join fanouts. Used only to pre-size temp arenas;
// simulation accounting never reads it.
func (rt *Runtime) segmentRowsHint(c *plan.Chain, fromStep, toStep int, queueInput bool, in TupleSource) int {
	expected := float64(in.Remaining())
	if queueInput {
		expected *= predSelectivity(c)
	}
	for i := fromStep; i < toStep && i < len(c.Joins); i++ {
		expected *= stepFanout(c.Joins[i])
	}
	return clampReserveRows(int64(expected))
}

// PerTupleCost estimates the mediator CPU time c_p spent per input tuple of
// a fragment covering chain steps [fromStep, toStep) with the given input
// kind and terminal. It is the c_p of the paper's critical degree (§4.3)
// and of the analytic lower bound.
func (rt *Runtime) PerTupleCost(c *plan.Chain, fromStep, toStep int, queueInput bool, term TerminalKind) time.Duration {
	p := rt.Cfg.Params
	var instr float64
	expected := 1.0
	if queueInput {
		instr += float64(p.ReceiveTupleInstr() + p.MoveTupleInstr)
		expected = predSelectivity(c)
	} else {
		instr += float64(p.MoveTupleInstr)
	}
	for i := fromStep; i < toStep && i < len(c.Joins); i++ {
		j := c.Joins[i]
		instr += expected * float64(p.HashSearchInstr)
		expected *= stepFanout(j)
		instr += expected * float64(p.ProduceResultInstr)
	}
	if term == TermBuild || term == TermTemp {
		instr += expected * float64(p.MoveTupleInstr)
	}
	return p.InstrTime(int64(instr))
}

// Wait returns the scheduler's best waiting-time knowledge for a chain's
// wrapper: its queue's estimate when available, the configured initial
// estimate otherwise.
func (rt *Runtime) Wait(c *plan.Chain) time.Duration {
	if w, ok := rt.queueIn(c).q.EstimatedWait(); ok {
		return w
	}
	return rt.Cfg.InitialWaitEstimate
}

// TupleIOTime returns IO_p of the paper's bmi formula: the amortized
// sequential disk time to read or write one tuple of a materialized
// fragment result.
func (rt *Runtime) TupleIOTime() time.Duration {
	return rt.Cfg.Params.PageTransferTime() / time.Duration(rt.Cfg.Params.TuplesPerPage())
}

// CountMemRepair bumps the mediator-level repair statistic from DQO code.
func (rt *Runtime) CountMemRepair() { rt.Med.CountMemRepair() }

// CountMaterialized adds n tuples to the materialization volume statistic.
func (rt *Runtime) CountMaterialized(n int64) { rt.matTuples += n }

// maxEstErrorFactor returns the worst estimate-vs-actual factor,
// max(actual/est, est/actual), across the completed hash-table builds of
// this query — the statistics the paper's §3.1 says the engine should
// collect for the dynamic optimizer. It is 1 when every estimate was exact
// or nothing completed; a build with an empty side cannot raise it.
func (rt *Runtime) maxEstErrorFactor() float64 {
	worst := 1.0
	for _, c := range rt.Dec.Chains {
		j := c.BuildsFor
		if j == nil || !rt.table(j).complete {
			continue
		}
		est, actual := j.Build.EstRows, float64(rt.TableRows(j))
		if est > 0 && actual > 0 {
			worst = max(worst, est/actual, actual/est)
		}
	}
	return worst
}
