package exec

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"dqs/internal/comm"
	"dqs/internal/fault"
	"dqs/internal/mem"
	"dqs/internal/operator"
	"dqs/internal/plan"
	"dqs/internal/relation"
	"dqs/internal/sim"
	"dqs/internal/source"
)

// Mediator is the shared execution site: one mono-processor clock, one
// local disk, one memory pool, one communication manager. A single query
// uses it through NewRuntime; the multi-query extension (the paper's §6
// future work) attaches several Runtimes to one Mediator so concurrent
// queries contend for CPU, disk, memory and scheduling attention exactly
// like fragments of one query do.
type Mediator struct {
	Cfg   Config
	Clock *sim.Clock
	Disk  *sim.Disk
	Costs operator.Costs
	Mem   *mem.Manager
	Temps *mem.TempStore
	CM    *comm.Manager
	Trace *sim.Trace
	// Work is the scheduling loop's counters (see Work), kept in the
	// mediator's scratch: the engine increments them in place.
	Work *Work

	rng     *sim.RNG
	rngs    []*sim.RNG // every stream drawn from scratch, for Reclaim
	queries int
	rts     []*Runtime
	flt     []*faultEntry // one per faulted wrapper, in registration order
	// scratch is the pooled execution state this mediator draws from, checked
	// out (getScratch) at construction; nil once Reclaim has returned it.
	scratch *scratch
	// streams is the shared-wrapper registry (Cfg.SharedStreams): one
	// physical stream per (table object, delivery behaviour), tapped by
	// every query scanning it, in creation order.
	streams []stream

	replans    int
	degrades   int
	timeouts   int
	memRepairs int
	planHits   int
	planMisses int
}

// NewMediator builds an empty mediator from a validated configuration.
func NewMediator(cfg Config) (*Mediator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	clock := sim.NewClock()
	s := getScratch()
	disk, memMgr, temps, err := s.site(cfg, clock)
	if err != nil {
		putScratch(s)
		return nil, err
	}
	m := &Mediator{
		Cfg:     cfg,
		Clock:   clock,
		Disk:    disk,
		Costs:   operator.NewCosts(clock, cfg.Params),
		Mem:     memMgr,
		Temps:   temps,
		CM:      s.manager(),
		Trace:   cfg.Trace,
		Work:    &s.work,
		scratch: s,
	}
	s.work = Work{}
	m.rng = m.newRNG(cfg.Seed)
	m.Temps.SetGovernor(m.Mem, true)
	if !cfg.Governor {
		m.Mem.WriteThrough()
	}
	m.Temps.SetPool(m.scratch)
	return m, nil
}

// Reclaim returns the mediator's pooled execution state — queues, hash
// tables, fragment scratch, temp-relation storage, stream schedules, wrapper
// staging, RNG streams, the communication manager, the simulated disk, the
// grant ledger, the temp store and the loop counters — to the process-wide
// pool, for the next mediator to
// draw from. Whoever built the mediator for a whole run calls it when the
// run is over: every Runtime finished, no tuple handed to a Sink still
// referenced (a Result is a value and stays valid). The mediator must not
// execute afterwards; a second call is a no-op, and a mediator never
// reclaimed just leaves its storage to the GC.
func (m *Mediator) Reclaim() {
	s := m.scratch
	if s == nil {
		return
	}
	m.scratch = nil
	for _, rt := range m.rts {
		rt.reclaim(s)
	}
	m.Temps.Reclaim()
	for _, st := range m.streams {
		st.sh.Release()
	}
	for _, g := range m.rngs {
		s.putRNG(g)
	}
	m.rngs = nil
	putScratch(s)
}

// newRNG returns a generator seeded with seed, recycled from the scratch
// (NewRNG's stream exactly) and handed back at Reclaim.
func (m *Mediator) newRNG(seed int64) *sim.RNG {
	g := m.scratch.rng(seed)
	m.rngs = append(m.rngs, g)
	return g
}

// Now returns the mediator's virtual time.
func (m *Mediator) Now() time.Duration { return m.Clock.Now() }

// AddQuery attaches one query to the mediator: it reads the plan's
// decomposition (computed once, by plan.Builder.Output), its wrappers start
// producing (at the current virtual time zero of a fresh mediator), and a
// Runtime scoped to this query is returned. label scopes
// wrapper names in the communication manager so concurrent queries reading
// the same relation get independent sub-queries, as the mediator/wrapper
// architecture prescribes. A label any earlier query of this mediator
// carried, finished or not, is refused: its fault entries and ledger
// holders still name it. Everything AddQuery refuses — the label, the
// relations, each wrapper's and replica's schedule — it refuses before it
// adopts a queue, forks an RNG, creates a shared stream, registers a fault
// entry or counts a Config.Plans load, so a refused query leaves the
// mediator as it found it.
func (m *Mediator) AddQuery(label string, root *plan.Node, ds relation.Dataset, deliveries map[string]Delivery) (*Runtime, error) {
	for _, rt := range m.rts {
		if rt.Label == label {
			return nil, fmt.Errorf("exec: query label %q is already in use", label)
		}
	}
	dec, err := plan.Decompose(root)
	if err != nil {
		return nil, err
	}
	var unknown []string
	for name := range deliveries {
		if _, ok := dec.ChainOf(name); !ok {
			unknown = append(unknown, name)
		}
	}
	if len(unknown) > 0 {
		return nil, fmt.Errorf("exec: delivery for unknown relation %q", slices.Min(unknown))
	}
	for _, c := range dec.Chains {
		name := c.Scan.Rel.Name
		table, ok := ds[name]
		if !ok {
			return nil, fmt.Errorf("exec: dataset is missing relation %q", name)
		}
		if table.Rel.Cardinality != len(table.Rows) {
			return nil, fmt.Errorf("exec: relation %q: catalog cardinality %d != generated rows %d",
				name, table.Rel.Cardinality, len(table.Rows))
		}
		d := deliveries[name]
		rep, replicated := m.Cfg.Faults.ReplicaFor(name)
		if err := d.validate(); err != nil {
			// Named as the wrapper's constructor names it: a shared stream
			// (no fault clause, no replica) by its relation.
			if !m.Cfg.SharedStreams || replicated || len(m.Cfg.Faults.ClausesFor(name)) > 0 {
				name = scopedName(label, name)
			}
			return nil, fmt.Errorf("source %q: %w", name, err)
		}
		if replicated {
			if err := source.ValidateSchedule([]source.Phase{{W: replicaWait(rep, d)}}, 0); err != nil {
				return nil, fmt.Errorf("source %q: %w", scopedName(label, name)+"~replica", err)
			}
		}
	}
	if m.Cfg.Plans != nil {
		// Load fails only as Decompose did above.
		if _, hit, _ := m.Cfg.Plans.Load(root); hit {
			m.planHits++
		} else {
			m.planMisses++
		}
	}
	m.queries++
	frags, steps := fragmentSlabs(dec)
	rt := &Runtime{
		Med:      m,
		Label:    label,
		Clock:    m.Clock,
		Root:     root,
		Dec:      dec,
		sink:     m.Cfg.Stream,
		inputs:   make([]input, len(dec.Chains)),
		tables:   make([]tableState, len(dec.Joins)),
		frags:    make([]*Fragment, 0, frags),
		fragRoom: make([]Fragment, frags),
		stepRoom: make([]stepExec, steps),
	}
	// A query whose builds are estimated not to fit the grant spends it on
	// builds and a split: resident pages would only spill late. Write through.
	var est int64
	for _, c := range dec.Chains {
		est += rt.EstBuildBytes(c)
	}
	if est > m.Cfg.MemoryBytes {
		m.Mem.WriteThrough()
	}
	rng := m.newRNG(m.rng.ForkSeed(int64(m.queries)))
	netTime := m.Cfg.Params.NetworkTupleTime()
	names := cmNames(label, dec.Chains)
	for i, c := range dec.Chains {
		name := c.Scan.Rel.Name
		table := ds[name]
		// The wrapper's CM name scopes the relation by the query's label.
		cmName := name
		if label != "" {
			n := len(label) + 1 + len(name)
			cmName, names = names[:n], names[n:]
		}
		// The queue ring carries only the plan's live columns, and the scan
		// predicate is evaluated in the wrapper. Window slots and arrivals
		// stay pre-filter, so scheduling sees every produced tuple.
		p := compileColPush(c)
		q := m.scratch.queue(cmName, m.Cfg.QueueTuples, len(p.keep))
		m.CM.Adopt(q)
		d := deliveries[name]
		// Room for every option appended below, faults included.
		var buf [7]source.Option
		opts := d.appendSourceOptions(buf[:0])
		if now := m.Clock.Now(); now > 0 {
			// Mid-run admission: this query's sub-queries go out now, so its
			// wrappers start producing now, not at the mediator's epoch.
			opts = append(opts, source.WithStartTime(now))
		}
		// Fault clauses and replicas bind faults to one private wrapper's
		// row cursor, so a faulted source never rides a shared stream.
		// Clauses are per relation, their randomness per CM-scoped wrapper.
		clauses := m.Cfg.Faults.ClausesFor(name)
		_, replicated := m.Cfg.Faults.ReplicaFor(name)
		if m.Cfg.SharedStreams && len(clauses) == 0 && !replicated {
			sh, err := m.sharedStream(name, table, d)
			if err != nil {
				return nil, err
			}
			opts = append(opts, source.WithSharedStream(sh))
		}
		opts = append(opts, source.WithColumnar(table.Columns(), p.keep, p.predIdx, p.predLess),
			source.WithRecycler(m.scratch))
		if len(clauses) > 0 {
			opts = append(opts, source.WithFaults(&fault.Script{
				Clauses: clauses, RNG: sim.NewRNG(fault.SeedFor(m.Cfg.FaultSeed, cmName))}))
		}
		src, err := source.New(cmName, table, q, m.newRNG(rng.ForkSeed(int64(i+1))), netTime, opts...)
		if err != nil {
			return nil, err
		}
		rt.inputs[c.ID] = input{src: src, qs: queueSource{q: q, src: src}}
		if len(clauses) > 0 || replicated {
			if err := m.registerFaultEntry(rt, c, cmName, table, d, netTime); err != nil {
				return nil, err
			}
		}
	}
	for i, j := range dec.Joins {
		// Pre-size the build from the best cardinality knowledge available:
		// the actual row count a prior run of this plan recorded at build
		// completion, falling back to the optimizer's estimate at first
		// build. A wrong hint only costs allocator behaviour — simulation
		// accounting never reads the reservation.
		rows := int64(j.Build.EstRows)
		if h, ok := m.scratch.buildRowsHint(j.ID); ok {
			rows = h
		}
		ht := m.scratch.table(j.Build.Live.MustIndexOf(j.BuildKey), j.Build.Live.Width(), clampReserveRows(rows))
		holder := m.Mem.Bind(label, "hash table")
		rt.tables[i] = tableState{join: j, ht: ht, holder: holder}
	}
	m.rts = append(m.rts, rt)
	return rt, nil
}

// scopedName returns the communication-manager name of a query's wrapper of
// relation rel: "label:rel", or rel for an unlabelled query.
func scopedName(label, rel string) string {
	if label == "" {
		return rel
	}
	return label + ":" + rel
}

// cmNames returns the communication-manager names of a labelled query's
// wrappers, "label:rel" in chain order, concatenated into one string for
// AddQuery to cut; an unlabelled query's names are its relation names.
func cmNames(label string, chains []*plan.Chain) string {
	if label == "" {
		return ""
	}
	n := 0
	for _, c := range chains {
		n += len(label) + 1 + len(c.Scan.Rel.Name)
	}
	var b strings.Builder
	b.Grow(n)
	for _, c := range chains {
		b.WriteString(label)
		b.WriteByte(':')
		b.WriteString(c.Scan.Rel.Name)
	}
	return b.String()
}

// stream is one shared physical wrapper stream: the same table object
// delivered with the same behaviour. Distinct table objects (even of equally
// named relations) carry distinct data and never share.
type stream struct {
	tbl *relation.Table
	d   Delivery
	sh  *source.Shared
}

// sharedStream returns the shared physical stream for (table, delivery),
// creating it on first use. The stream's production schedule draws from a
// dedicated RNG namespace so it is deterministic in creation order and
// independent of the per-query delay streams.
func (m *Mediator) sharedStream(rel string, table *relation.Table, d Delivery) (*source.Shared, error) {
	for _, st := range m.streams {
		if st.tbl == table && st.d.MeanWait == d.MeanWait && st.d.InitialDelay == d.InitialDelay &&
			slices.Equal(st.d.Phases, d.Phases) {
			return st.sh, nil
		}
	}
	rng := m.newRNG(m.rng.ForkSeed(streamSeedBase + int64(len(m.streams))))
	var buf [3]source.Option
	opts := append(d.appendSourceOptions(buf[:0]), source.WithRecycler(m.scratch))
	sh, err := source.NewShared(rel, table, rng, opts...)
	if err != nil {
		return nil, err
	}
	m.streams = append(m.streams, stream{tbl: table, d: d, sh: sh})
	return sh, nil
}

// streamSeedBase offsets the shared-stream RNG forks far away from the
// per-query forks (small positive integers), so stream schedules never
// collide with query delay streams.
const streamSeedBase = int64(1) << 32

// SharedStreamCount returns how many physical shared streams the mediator
// created, and the total taps they served.
func (m *Mediator) SharedStreamCount() (streams, taps int) {
	for _, st := range m.streams {
		taps += st.sh.Taps()
	}
	return len(m.streams), taps
}

// CountReplan, CountDegrade, CountTimeout and CountMemRepair accumulate
// scheduler activity across all attached queries.
func (m *Mediator) CountReplan()    { m.replans++ }
func (m *Mediator) CountDegrade()   { m.degrades++ }
func (m *Mediator) CountTimeout()   { m.timeouts++ }
func (m *Mediator) CountMemRepair() { m.memRepairs++ }
