package core

import (
	"fmt"
	"strings"
	"time"

	"dqs/internal/exec"
	"dqs/internal/sim"
)

// resilience is the engine's fault-reaction layer, armed only when the
// mediator runs under an active fault plan: it surfaces wrapper availability
// transitions as policy events, detects permanently silent wrappers through
// bounded retry probes with exponential backoff in virtual time, and
// recovers via replica failover or partial-result abandonment. The fault-free
// path never constructs one, so runs without faults stay bit-identical.
type resilience struct {
	med      *exec.Mediator
	st       *State
	wrappers map[string]*wrapperState
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

// wrapperState is the per-wrapper detection state machine.
type wrapperState struct {
	watching  bool          // silence observed, detection timer armed
	probes    int           // retry probes sent so far
	nextProbe time.Duration // virtual instant of the next probe
	dead      bool          // declared dead after the retry budget
}

// faultAction is the resilience layer's verdict on an all-starved window.
type faultAction int

const (
	// faultIdle: nothing fault-related to do now — fall through to the
	// policy's starvation handler or the default stall/timeout reaction.
	faultIdle faultAction = iota
	// faultStalled: the clock advanced to a probe instant; resume the scan.
	faultStalled
	// faultEvent: a recovery happened; end the phase with the event.
	faultEvent
)

func (r *resilience) wrapper(name string) *wrapperState {
	ws, ok := r.wrappers[name]
	if !ok {
		ws = &wrapperState{}
		r.wrappers[name] = ws
	}
	return ws
}

// transition pops the next wrapper availability change crossing the current
// virtual time and turns it into a policy event, so every policy sees
// disconnects, reconnects and deaths at its planning points.
func (r *resilience) transition(now time.Duration, window []*exec.Fragment) (Event, bool) {
	tr, ok := r.med.NextFaultTransition(now)
	if !ok {
		return Event{}, false
	}
	if tr.Up {
		r.med.Trace.Add(tr.At, sim.EvSourceUp, "wrapper %s reconnected", tr.Wrapper)
		return Event{Kind: EventSourceUp, Wrapper: tr.Wrapper, Window: window}, true
	}
	if tr.Permanent {
		r.med.Trace.Add(tr.At, sim.EvSourceDown, "wrapper %s down (permanent)", tr.Wrapper)
	} else {
		r.med.Trace.Add(tr.At, sim.EvSourceDown, "wrapper %s disconnected", tr.Wrapper)
	}
	return Event{Kind: EventSourceDown, Wrapper: tr.Wrapper, Window: window}, true
}

// onStarved inspects a fully starved scheduling window for silent wrappers:
// scheduled, not exhausted, nothing buffered and nothing ever arriving — the
// signature of a dead source. It advances the per-wrapper detection state
// machine one step (arm timer, send probe, declare dead, recover) and tells
// the phase loop what happened. Wrappers with data still coming are left to
// the normal starvation machinery, preserving each policy's stall/timeout
// character.
func (r *resilience) onStarved(window []*exec.Fragment) (faultAction, Event, error) {
	now := r.st.Now()
	cfg := r.med.Cfg
	var silent []string
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
		name, dead := exec.WrapperFault(f.In)
		if !dead {
			continue
		}
		seen := false
		for _, s := range silent {
			if s == name {
				seen = true
				break
			}
		}
		if !seen {
			silent = append(silent, name)
		}
	}
	if len(silent) == 0 {
		return faultIdle, Event{}, nil
	}
	for _, name := range silent {
		ws := r.wrapper(name)
		if ws.dead {
			// Already declared (a fragment instantiated later over the same
			// dead wrapper): recover immediately, no fresh probe sequence.
			ev, err := r.recover(name, ws, window)
			if err != nil {
				return faultIdle, Event{}, err
			}
			return faultEvent, ev, nil
		}
		if !ws.watching {
			ws.watching = true
			ws.nextProbe = now + faultDetect
		}
	}
	probeName := ""
	var probeAt time.Duration
	for _, name := range silent {
		ws := r.wrappers[name]
		if probeName == "" || ws.nextProbe < probeAt {
			probeName, probeAt = name, ws.nextProbe
		}
	}
	if na, ok := nextArrival(window); ok && na <= probeAt {
		// Real data arrives before the probe would fire: let the normal
		// starvation reaction handle the wait, keeping probe timers armed.
		return faultIdle, Event{}, nil
	}
	r.st.StallUntil(probeAt)
	ws := r.wrappers[probeName]
	ws.probes++
	// One probe is a message out and (the hoped-for) reply in.
	r.st.ChargeInstructions(2 * cfg.Params.MessageInstr)
	r.med.Trace.Add(r.st.Now(), sim.EvRetry, "retry %d/%d to silent wrapper %s",
		ws.probes, faultRetries, probeName)
	if ws.probes < faultRetries {
		ws.nextProbe = r.st.Now() + faultRetryBase<<(ws.probes-1)
		return faultStalled, Event{}, nil
	}
	ws.dead = true
	r.med.Trace.Add(r.st.Now(), sim.EvSourceDown, "wrapper %s declared dead after %d retries",
		probeName, ws.probes)
	ev, err := r.recover(probeName, ws, window)
	if err != nil {
		return faultIdle, Event{}, err
	}
	return faultEvent, ev, nil
}

// recover resolves a declared-dead wrapper: replica failover when the plan
// provides one, partial-result abandonment when the run opted in, otherwise
// a hard error — a dead source with no recovery path cannot produce the
// query's full answer.
func (r *resilience) recover(name string, ws *wrapperState, window []*exec.Fragment) (Event, error) {
	now := r.st.Now()
	if r.med.FailoverWrapper(name, now) {
		return Event{Kind: EventFailover, Wrapper: name, Window: window}, nil
	}
	if r.med.Cfg.PartialResults {
		labels := r.med.AbandonWrapper(name)
		r.med.Trace.Add(now, sim.EvSourceDown, "wrapper %s: partial results, abandoned [%s]",
			name, strings.Join(labels, " "))
		return Event{Kind: EventSourceDown, Wrapper: name, Window: window}, nil
	}
	return Event{}, fmt.Errorf("core: wrapper %s is dead after %d retries (no replica; partial results disabled)",
		name, ws.probes)
}
