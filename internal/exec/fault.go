package exec

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"dqs/internal/fault"
	"dqs/internal/plan"
	"dqs/internal/relation"
	"dqs/internal/sim"
	"dqs/internal/source"
)

// faultEntry is one faulted wrapper's whole fault life: its primary source,
// the standby replica (if the plan defines one), how much of the primary's
// outage record has been surfaced to the scheduler, and the silence
// detector's state. The mediator keeps one entry per wrapper the fault plan
// names, in registration (chain) order, so transition reporting is
// deterministic across runs; the wrapper's queueSource points back at it.
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

	watching  bool          // silence observed, detection timer armed
	probes    int           // retry probes sent so far
	nextProbe time.Duration // virtual instant of the next probe
	dead      bool          // declared dead after the retry budget
}

// The silent-wrapper probe schedule, in virtual time: a scheduled wrapper
// with nothing buffered, nothing in flight and rows undelivered gets its
// first retry probe after faultDetect, the next after faultRetryBase
// (doubling per probe), and is declared dead after faultRetries probes.
const (
	faultDetect    = 50 * time.Millisecond
	faultRetryBase = 100 * time.Millisecond
	faultRetries   = 4
)

// WrapperEvent is a step of a faulted wrapper's life the scheduler reacts
// to, already traced. Kind is sim.EvSourceDown (a disconnect, a death, or a
// dead wrapper's fragments abandoned for partial results), sim.EvSourceUp (a
// reconnect), sim.EvFailover (a replica took over) or sim.EvRetry (the clock
// stalled to a probe of a silent wrapper: rescan the window).
type WrapperEvent struct {
	Wrapper string
	Kind    sim.EventKind
}

// boundary returns the idx-th availability boundary of this entry's primary:
// each outage contributes a down edge at From and, unless permanent, an up
// edge at To. The eager pump records outages ahead of virtual time, so
// callers must gate on the instant.
func (e *faultEntry) boundary(idx int) (at time.Duration, up, permanent, ok bool) {
	for _, o := range e.primary.Outages() {
		if idx == 0 {
			return o.From, false, o.Permanent, true
		}
		idx--
		if !o.Permanent {
			if idx == 0 {
				return o.To, true, false, true
			}
			idx--
		}
	}
	return 0, false, false, false
}

// WrapperTransition reports the earliest unreported wrapper availability
// change at or before now — a disconnect, a reconnect or a death — and
// traces it. Each transition is reported exactly once, and never for a
// completed query; ties break in wrapper chain order, keeping the event
// stream deterministic. A mediator without faulted wrappers reports none.
func (m *Mediator) WrapperTransition(now time.Duration) (WrapperEvent, bool) {
	var best *faultEntry
	var bestAt time.Duration
	var up, permanent bool
	for _, e := range m.flt {
		if e.rt.completed {
			continue
		}
		at, u, p, ok := e.boundary(e.reported)
		if !ok || at > now {
			continue
		}
		if best == nil || at < bestAt {
			best, bestAt, up, permanent = e, at, u, p
		}
	}
	if best == nil {
		return WrapperEvent{}, false
	}
	best.reported++
	switch {
	case up:
		m.Trace.Add(bestAt, sim.EvSourceUp, "wrapper %s reconnected", best.name)
		return WrapperEvent{Wrapper: best.name, Kind: sim.EvSourceUp}, true
	case permanent:
		m.Trace.Add(bestAt, sim.EvSourceDown, "wrapper %s down (permanent)", best.name)
	default:
		m.Trace.Add(bestAt, sim.EvSourceDown, "wrapper %s disconnected", best.name)
	}
	return WrapperEvent{Wrapper: best.name, Kind: sim.EvSourceDown}, true
}

// ProbeSilent is the verdict on a fully starved scheduling window. It looks
// for silent wrappers — scheduled, not exhausted, nothing buffered and
// nothing ever arriving: the signature of a dead source — and advances their
// detection one step: arm the timer, stall the clock to the earliest probe
// and send it, declare the wrapper dead after its last probe, recover it. It
// returns false when no wrapper of the window is silent, or real data
// arrives before the next probe would fire (the probe timers stay armed):
// the scheduler's own starvation reaction handles the wait. The error names
// a dead wrapper nothing can recover.
func (m *Mediator) ProbeSilent(window []*Fragment) (WrapperEvent, bool, error) {
	if len(m.flt) == 0 {
		return WrapperEvent{}, false, nil
	}
	var silent []*faultEntry
	for _, f := range window {
		if f.Done() {
			continue
		}
		if _, ok := f.NextArrival(); ok {
			continue
		}
		if f.In.Exhausted() {
			continue
		}
		qs, ok := f.In.(*queueSource)
		if !ok || qs.flt == nil || !qs.src.Dead() || qs.q.Len() != 0 {
			continue
		}
		if !slices.Contains(silent, qs.flt) {
			silent = append(silent, qs.flt)
		}
	}
	if len(silent) == 0 {
		return WrapperEvent{}, false, nil
	}
	now := m.Now()
	for _, e := range silent {
		if e.dead {
			// Already declared (a fragment instantiated later over the same
			// dead wrapper): recover immediately, no fresh probe sequence.
			return m.recoverWrapper(e)
		}
		if !e.watching {
			e.watching = true
			e.nextProbe = now + faultDetect
		}
	}
	e := silent[0]
	for _, s := range silent[1:] {
		if s.nextProbe < e.nextProbe {
			e = s
		}
	}
	for _, f := range window {
		if f.Done() {
			continue
		}
		if at, ok := f.NextArrival(); ok && at <= e.nextProbe {
			return WrapperEvent{}, false, nil
		}
	}
	m.Clock.Stall(e.nextProbe)
	e.probes++
	// One probe is a message out and (the hoped-for) reply in.
	m.Clock.Work(m.Cfg.Params.InstrTime(2 * m.Cfg.Params.MessageInstr))
	m.Trace.Add(m.Now(), sim.EvRetry, "retry %d/%d to silent wrapper %s", e.probes, faultRetries, e.name)
	if e.probes < faultRetries {
		e.nextProbe = m.Now() + faultRetryBase<<(e.probes-1)
		return WrapperEvent{Wrapper: e.name, Kind: sim.EvRetry}, true, nil
	}
	e.dead = true
	m.Trace.Add(m.Now(), sim.EvSourceDown, "wrapper %s declared dead after %d retries", e.name, e.probes)
	return m.recoverWrapper(e)
}

// recoverWrapper resolves a declared-dead wrapper: replica failover when the
// plan provides one, partial-result abandonment when the run opted in,
// otherwise an error — a dead source with no recovery path cannot produce
// the query's full answer.
//
// Failover resumes the stream at the primary's next undelivered row (after
// the replica's connect delay; a restart replica re-pays the prefix) with the
// replica as the queue's producer. Abandonment abandons every unfinished
// fragment the wrapper feeds; abandoned build fragments seal their hash
// tables with whatever they inserted, so the rest of the QEP completes
// against the partial table.
func (m *Mediator) recoverWrapper(e *faultEntry) (WrapperEvent, bool, error) {
	now := m.Now()
	if e.hasRep && !e.failedOver {
		e.failedOver = true
		from := e.primary.NextRow()
		e.replica.Activate(now, from, e.spec.Connect, e.spec.Restart)
		e.qs.src = e.replica
		m.Trace.Add(now, sim.EvFailover, "%s: replica takes over at row %d", e.name, from)
		return WrapperEvent{Wrapper: e.name, Kind: sim.EvFailover}, true, nil
	}
	if !m.Cfg.PartialResults {
		return WrapperEvent{}, false, fmt.Errorf("exec: wrapper %s is dead after %d retries (no replica; partial results disabled)",
			e.name, e.probes)
	}
	var labels []string
	for _, f := range e.rt.frags {
		if f.In == e.qs && !f.Done() {
			f.Abandon()
			labels = append(labels, f.Label)
		}
	}
	m.Trace.Add(now, sim.EvSourceDown, "wrapper %s: partial results, abandoned [%s]", e.name, strings.Join(labels, " "))
	return WrapperEvent{Wrapper: e.name, Kind: sim.EvSourceDown}, true, nil
}

// registerFaultEntry records the fault bookkeeping of one wrapper the plan
// names, after its primary source exists, building the standby replica when
// the plan declares one. AddQuery registers no other wrapper: the fault-free
// fast paths stay untouched.
func (m *Mediator) registerFaultEntry(rt *Runtime, c *plan.Chain, cmName string, table *relation.Table, d Delivery, netTime time.Duration) error {
	rep, hasRep := m.Cfg.Faults.ReplicaFor(c.Scan.Rel.Name)
	e := &faultEntry{
		name:    cmName,
		rt:      rt,
		qs:      rt.queueIn(c),
		primary: rt.inputs[c.ID].src,
		spec:    rep,
		hasRep:  hasRep,
	}
	if hasRep {
		// The replica shares the primary's queue, so it must deliver the same
		// projected columns and wrapper-side predicate.
		p := compileColPush(c)
		repl, err := source.New(cmName+"~replica", table, e.qs.q,
			sim.NewRNG(fault.SeedFor(m.Cfg.FaultSeed, cmName+"~replica")), netTime,
			source.WithMeanWait(replicaWait(rep, d)), source.AsStandby(),
			source.WithColumnar(table.Columns(), p.keep, p.predIdx, p.predLess))
		if err != nil {
			return err
		}
		e.replica = repl
	}
	e.qs.flt = e
	m.flt = append(m.flt, e)
	return nil
}

// replicaWait is a replica's mean waiting time: its own, or else the
// primary's configured mean wait.
func replicaWait(rep fault.Replica, d Delivery) time.Duration {
	if rep.Wait == 0 {
		return d.MeanWait
	}
	return rep.Wait
}
