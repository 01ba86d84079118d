package exec

import (
	"fmt"
	"slices"
	"time"

	"dqs/internal/comm"
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

	rng     *sim.RNG
	rngs    []*sim.RNG // every stream drawn from scratch, for Reclaim
	queries int
	rts     []*Runtime
	flt     *faultState
	// scratch is the pooled execution state this mediator draws from, checked
	// out (getScratch) at construction; nil once Reclaim has returned it.
	scratch *Scratch
	// streams is the shared-wrapper registry (Cfg.SharedStreams): one
	// physical stream per (table object, delivery behaviour), tapped by
	// every query scanning it. Lazily allocated on first share.
	streams map[streamKey]*source.Shared

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
	disk := sim.NewDisk(cfg.Params, clock)
	memMgr, err := mem.NewManager(cfg.MemoryBytes)
	if err != nil {
		return nil, err
	}
	m := &Mediator{
		Cfg:     cfg,
		Clock:   clock,
		Disk:    disk,
		Costs:   operator.NewCosts(clock, cfg.Params),
		Mem:     memMgr,
		Temps:   mem.NewTempStore(cfg.Params, disk, clock),
		CM:      comm.NewManager(),
		Trace:   cfg.Trace,
		scratch: getScratch(),
	}
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
// staging, RNG streams — to the process-wide pool, for the next mediator to
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
	for _, sh := range m.streams {
		sh.Release()
	}
	for _, g := range m.rngs {
		s.PutRNG(g)
	}
	m.rngs = nil
	putScratch(s)
}

// newRNG returns a generator seeded with seed, recycled from the scratch
// (NewRNG's stream exactly) and handed back at Reclaim.
func (m *Mediator) newRNG(seed int64) *sim.RNG {
	g := m.scratch.RNG(seed)
	m.rngs = append(m.rngs, g)
	return g
}

// Now returns the mediator's virtual time.
func (m *Mediator) Now() time.Duration { return m.Clock.Now() }

// AddQuery attaches one query to the mediator: its plan is decomposed, its
// wrappers start producing (at the current virtual time zero of a fresh
// mediator), and a Runtime scoped to this query is returned. label scopes
// wrapper names in the communication manager so concurrent queries reading
// the same relation get independent sub-queries, as the mediator/wrapper
// architecture prescribes. A label any earlier query of this mediator
// carried, finished or not, is refused: its fault entries and ledger
// holders still name it.
func (m *Mediator) AddQuery(label string, root *plan.Node, ds relation.Dataset, deliveries map[string]Delivery) (*Runtime, error) {
	for _, rt := range m.rts {
		if rt.Label == label {
			return nil, fmt.Errorf("exec: query label %q is already in use", label)
		}
	}
	dec, hit, err := m.Cfg.Plans.Load(root)
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
	}
	if m.Cfg.Plans != nil {
		if hit {
			m.planHits++
		} else {
			m.planMisses++
		}
	}
	m.queries++
	rt := &Runtime{
		Med:     m,
		Label:   label,
		Cfg:     m.Cfg,
		Clock:   m.Clock,
		Disk:    m.Disk,
		Costs:   m.Costs,
		Mem:     m.Mem,
		Temps:   m.Temps,
		Root:    root,
		Dec:     dec,
		Trace:   m.Trace,
		sources: make(map[string]*source.Source),
		qsrcs:   make(map[string]*queueSource),
		tables:  make(map[int]*tableState),
		colPush: make(map[string]colPush),
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
	for i, c := range dec.Chains {
		name := c.Scan.Rel.Name
		table := ds[name]
		cmName := rt.cmName(name)
		// The queue ring carries only the plan's live columns, and the scan
		// predicate is evaluated in the wrapper. Window slots and arrivals
		// stay pre-filter, so scheduling sees every produced tuple.
		p := compileColPush(root, c.Scan)
		q := m.scratch.Queue(cmName, m.Cfg.QueueTuples, len(p.keep))
		m.CM.Adopt(q)
		d := deliveries[name]
		// Room for every option appended below, faults included.
		opts := d.appendSourceOptions(make([]source.Option, 0, 7))
		if now := m.Clock.Now(); now > 0 {
			// Mid-run admission: this query's sub-queries go out now, so its
			// wrappers start producing now, not at the mediator's epoch.
			opts = append(opts, source.WithStartTime(now))
		}
		if m.Cfg.SharedStreams && m.shareable(name) {
			sh, err := m.sharedStream(name, table, d)
			if err != nil {
				return nil, err
			}
			opts = append(opts, source.WithSharedStream(sh))
		}
		opts = append(opts, source.WithColumnar(table.Columns(), p.keep, p.predIdx, p.predLess),
			source.WithRecycler(m.scratch))
		rt.colPush[name] = p
		opts = m.compileFaults(name, cmName, opts)
		src, err := source.New(cmName, table, q, m.newRNG(rng.ForkSeed(int64(i+1))), netTime, opts...)
		if err != nil {
			return nil, err
		}
		rt.sources[name] = src
		rt.qsrcs[name] = &queueSource{q: q, src: src, ch: chunk{cols: m.scratch.GetBatch(len(p.keep)),
			pass: m.scratch.GetBools(), at: p.keep, full: make(relation.Tuple, c.Scan.Schema.Width())}}
		if err := m.registerFaultEntry(rt, name, cmName, table, d, netTime); err != nil {
			return nil, err
		}
	}
	for _, j := range plan.Joins(root) {
		// Pre-size the build from the best cardinality knowledge available:
		// the actual row count a prior run of this plan recorded at build
		// completion, falling back to the optimizer's estimate at first
		// build. A wrong hint only costs allocator behaviour — simulation
		// accounting never reads the reservation.
		rows := int64(j.Build.EstRows)
		if h, ok := m.scratch.BuildRowsHint(j.ID); ok {
			rows = h
		}
		ht := m.scratch.Table(j.Build.Schema.MustIndexOf(j.BuildKey), j.Build.Schema.Width(), clampReserveRows(rows))
		holder := m.Mem.Bind(label, fmt.Sprintf("%s:J%d", label, j.ID))
		rt.tables[j.ID] = &tableState{join: j, ht: ht, holder: holder}
	}
	m.rts = append(m.rts, rt)
	return rt, nil
}

// streamKey identifies one shared physical wrapper stream: the same table
// object delivered with the same behaviour. Distinct table objects (even of
// equally named relations) carry distinct data and never share.
type streamKey struct {
	tbl *relation.Table
	fp  string
}

// shareable reports whether rel's wrapper may ride a shared stream: fault
// clauses and replicas bind faults to one private wrapper's row cursor, so
// faulted sources always stay private.
func (m *Mediator) shareable(rel string) bool {
	plan := m.Cfg.Faults
	if !plan.Active() {
		return true
	}
	if len(plan.ClausesFor(rel)) > 0 {
		return false
	}
	_, hasRep := plan.ReplicaFor(rel)
	return !hasRep
}

// sharedStream returns the shared physical stream for (table, delivery),
// creating it on first use. The stream's production schedule draws from a
// dedicated RNG namespace so it is deterministic in creation order and
// independent of the per-query delay streams.
func (m *Mediator) sharedStream(rel string, table *relation.Table, d Delivery) (*source.Shared, error) {
	key := streamKey{tbl: table, fp: fmt.Sprintf("%v|%v|%v", d.MeanWait, d.Phases, d.InitialDelay)}
	if sh, ok := m.streams[key]; ok {
		return sh, nil
	}
	if m.streams == nil {
		m.streams = make(map[streamKey]*source.Shared)
	}
	rng := m.newRNG(m.rng.ForkSeed(streamSeedBase + int64(len(m.streams))))
	var buf [3]source.Option
	opts := append(d.appendSourceOptions(buf[:0]), source.WithRecycler(m.scratch))
	sh, err := source.NewShared(rel, table, rng, opts...)
	if err != nil {
		return nil, err
	}
	m.streams[key] = sh
	return sh, nil
}

// streamSeedBase offsets the shared-stream RNG forks far away from the
// per-query forks (small positive integers), so stream schedules never
// collide with query delay streams.
const streamSeedBase = int64(1) << 32

// SharedStreamCount returns how many physical shared streams the mediator
// created, and the total taps they served.
func (m *Mediator) SharedStreamCount() (streams, taps int) {
	for _, sh := range m.streams {
		streams++
		taps += sh.Taps()
	}
	return streams, taps
}

// CountReplan, CountDegrade, CountTimeout and CountMemRepair accumulate
// scheduler activity across all attached queries.
func (m *Mediator) CountReplan()    { m.replans++ }
func (m *Mediator) CountDegrade()   { m.degrades++ }
func (m *Mediator) CountTimeout()   { m.timeouts++ }
func (m *Mediator) CountMemRepair() { m.memRepairs++ }
