package exec

import (
	"time"

	"dqs/internal/fault"
	"dqs/internal/relation"
	"dqs/internal/sim"
	"dqs/internal/source"
)

// faultState is the mediator's bookkeeping for an active fault plan: one
// entry per wrapper the plan names, in chain order, so transition reporting
// is deterministic across runs.
type faultState struct {
	entries map[string]*faultEntry
	order   []string
}

// faultEntry tracks one faulted wrapper: its primary source, the standby
// replica (if the plan defines one) and how much of the primary's outage
// record has been surfaced to the scheduler.
type faultEntry struct {
	name    string
	rt      *Runtime
	qs      *queueSource
	primary *source.Source
	replica *source.Source
	spec    fault.Replica
	hasRep  bool

	failedOver bool
	reported   int // outage boundaries already surfaced as transitions
}

// FaultTransition is one wrapper availability change crossing the current
// virtual time: a disconnect beginning, a reconnect, or a permanent death.
type FaultTransition struct {
	Wrapper   string
	At        time.Duration
	Up        bool
	Permanent bool
}

// boundary returns the idx-th availability boundary of this entry's primary:
// each outage contributes a down edge at From and, unless permanent, an up
// edge at To. The eager pump records outages ahead of virtual time, so
// callers must gate on At <= now.
func (e *faultEntry) boundary(idx int) (FaultTransition, bool) {
	for _, o := range e.primary.Outages() {
		if idx == 0 {
			return FaultTransition{Wrapper: e.name, At: o.From, Permanent: o.Permanent}, true
		}
		idx--
		if !o.Permanent {
			if idx == 0 {
				return FaultTransition{Wrapper: e.name, At: o.To, Up: true}, true
			}
			idx--
		}
	}
	return FaultTransition{}, false
}

// FaultsActive reports whether this mediator runs under a fault plan.
func (m *Mediator) FaultsActive() bool { return m.flt != nil }

// NextFaultTransition pops the earliest unreported wrapper availability
// change at or before now. The scheduler drains these at planning points and
// turns them into policy events; each transition is reported exactly once,
// and never for a completed query. Ties break in wrapper chain order,
// keeping the event stream deterministic.
func (m *Mediator) NextFaultTransition(now time.Duration) (FaultTransition, bool) {
	if m.flt == nil {
		return FaultTransition{}, false
	}
	var best *faultEntry
	var bestTr FaultTransition
	for _, name := range m.flt.order {
		e := m.flt.entries[name]
		if e.rt.completed {
			continue
		}
		tr, ok := e.boundary(e.reported)
		if !ok || tr.At > now {
			continue
		}
		if best == nil || tr.At < bestTr.At {
			best, bestTr = e, tr
		}
	}
	if best == nil {
		return FaultTransition{}, false
	}
	best.reported++
	return bestTr, true
}

// FailoverWrapper activates the standby replica of a dead wrapper at virtual
// time now: the replica resumes the stream at the primary's next undelivered
// row (after its connect delay; a restart replica re-pays the prefix) and
// takes the primary's place as the queue's producer. It returns false when
// the wrapper has no replica or already failed over.
func (m *Mediator) FailoverWrapper(name string, now time.Duration) bool {
	if m.flt == nil {
		return false
	}
	e := m.flt.entries[name]
	if e == nil || !e.hasRep || e.failedOver {
		return false
	}
	e.failedOver = true
	from := e.primary.NextRow()
	e.replica.Activate(now, from, e.spec.Connect, e.spec.Restart)
	e.qs.swap(e.replica)
	m.Trace.Add(now, sim.EvFailover, "%s: replica takes over at row %d", name, from)
	return true
}

// AbandonWrapper abandons every unfinished fragment fed by the named dead
// wrapper — the partial-result path — and returns their labels in creation
// order. Abandoned build fragments seal their hash tables with whatever they
// inserted, so the rest of the QEP completes against the partial table.
func (m *Mediator) AbandonWrapper(name string) []string {
	if m.flt == nil {
		return nil
	}
	e := m.flt.entries[name]
	if e == nil {
		return nil
	}
	var labels []string
	for _, f := range e.rt.frags {
		if qs, ok := f.In.(*queueSource); ok && qs == e.qs && !f.Done() {
			f.Abandon()
			labels = append(labels, f.Label)
		}
	}
	return labels
}

// WrapperFault inspects a fragment input: it returns the wrapper name and
// whether that wrapper is permanently dead with its queue drained — the
// silence signature the resilience layer probes. Non-wrapper inputs (temp
// readers) report false.
func WrapperFault(in TupleSource) (string, bool) {
	qs, ok := in.(*queueSource)
	if !ok {
		return "", false
	}
	return qs.q.Name(), qs.src.Dead() && qs.q.Len() == 0
}

// compileFaults wires the active fault plan into one query's wrapper as its
// chain is built: the clause schedule goes into the primary's options, a
// declared replica is constructed standby on the same queue, and a tracking
// entry is registered. rel is the plan-facing relation name; cmName the
// CM-scoped wrapper name (they differ under multi-query labels, so fault
// randomness stays per-wrapper while clauses stay per-relation).
func (m *Mediator) compileFaults(rel, cmName string, opts []source.Option) []source.Option {
	plan := m.Cfg.Faults
	if !plan.Active() {
		return opts
	}
	if clauses := plan.ClausesFor(rel); len(clauses) > 0 {
		opts = append(opts, source.WithFaults(&fault.Script{
			Clauses: clauses,
			RNG:     sim.NewRNG(fault.SeedFor(m.Cfg.FaultSeed, cmName)),
		}))
	}
	return opts
}

// registerFaultEntry records the fault bookkeeping of one wrapper after its
// primary source exists, building the standby replica when the plan declares
// one. A wrapper outside the plan gets no entry: the fault-free fast paths
// stay untouched.
func (m *Mediator) registerFaultEntry(rt *Runtime, rel, cmName string, table *relation.Table, d Delivery, netTime time.Duration) error {
	plan := m.Cfg.Faults
	if !plan.Active() {
		return nil
	}
	rep, hasRep := plan.ReplicaFor(rel)
	if len(plan.ClausesFor(rel)) == 0 && !hasRep {
		return nil
	}
	if m.flt == nil {
		m.flt = &faultState{entries: make(map[string]*faultEntry)}
	}
	e := &faultEntry{
		name:    cmName,
		rt:      rt,
		qs:      rt.qsrcs[rel],
		primary: rt.sources[rel],
		spec:    rep,
		hasRep:  hasRep,
	}
	if hasRep {
		rwait := rep.Wait
		if rwait == 0 {
			rwait = d.MeanWait
		}
		// The replica shares the primary's queue, so it must deliver the same
		// projected columns and wrapper-side predicate.
		p := rt.colPush[rel]
		repl, err := source.New(cmName+"~replica", table, e.qs.q,
			sim.NewRNG(fault.SeedFor(m.Cfg.FaultSeed, cmName+"~replica")), netTime,
			source.WithMeanWait(rwait), source.AsStandby(),
			source.WithColumnar(table.Columns(), p.keep, p.predIdx, p.predLess))
		if err != nil {
			return err
		}
		e.replica = repl
	}
	m.flt.entries[cmName] = e
	m.flt.order = append(m.flt.order, cmName)
	return nil
}
