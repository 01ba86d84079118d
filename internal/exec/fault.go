package exec

import (
	"time"

	"dqs/internal/fault"
	"dqs/internal/plan"
	"dqs/internal/relation"
	"dqs/internal/sim"
	"dqs/internal/source"
)

// faultEntry tracks one faulted wrapper: its primary source, the standby
// replica (if the plan defines one) and how much of the primary's outage
// record has been surfaced to the scheduler. The mediator keeps one entry
// per wrapper the fault plan names, in registration (chain) order, so
// transition reporting is deterministic across runs.
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
func (m *Mediator) FaultsActive() bool { return len(m.flt) > 0 }

// NextFaultTransition pops the earliest unreported wrapper availability
// change at or before now. The scheduler drains these at planning points and
// turns them into policy events; each transition is reported exactly once,
// and never for a completed query. Ties break in wrapper chain order,
// keeping the event stream deterministic.
func (m *Mediator) NextFaultTransition(now time.Duration) (FaultTransition, bool) {
	var best *faultEntry
	var bestTr FaultTransition
	for i := range m.flt {
		e := &m.flt[i]
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
	e := m.faultEntry(name)
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
	e := m.faultEntry(name)
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

// faultEntry returns the fault entry of the named wrapper, or nil.
func (m *Mediator) faultEntry(name string) *faultEntry {
	for i := range m.flt {
		if m.flt[i].name == name {
			return &m.flt[i]
		}
	}
	return nil
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

// registerFaultEntry records the fault bookkeeping of one wrapper the plan
// names, after its primary source exists, building the standby replica when
// the plan declares one. AddQuery registers no other wrapper: the fault-free
// fast paths stay untouched.
func (m *Mediator) registerFaultEntry(rt *Runtime, c *plan.Chain, cmName string, table *relation.Table, d Delivery, netTime time.Duration) error {
	rep, hasRep := m.Cfg.Faults.ReplicaFor(c.Scan.Rel.Name)
	e := faultEntry{
		name:    cmName,
		rt:      rt,
		qs:      rt.queueIn(c),
		primary: rt.inputs[c.ID].src,
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
		p := compileColPush(c)
		repl, err := source.New(cmName+"~replica", table, e.qs.q,
			sim.NewRNG(fault.SeedFor(m.Cfg.FaultSeed, cmName+"~replica")), netTime,
			source.WithMeanWait(rwait), source.AsStandby(),
			source.WithColumnar(table.Columns(), p.keep, p.predIdx, p.predLess))
		if err != nil {
			return err
		}
		e.replica = repl
	}
	m.flt = append(m.flt, e)
	return nil
}
