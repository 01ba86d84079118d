package core

import (
	"fmt"
	"math"
	"slices"
	"time"

	"dqs/internal/exec"
	"dqs/internal/sim"
)

// A readiness slot's values besides an instant: askNow lies before every
// instant; noInput (nothing will arrive) and finished (done) lie after all.
const (
	askNow   time.Duration = math.MinInt64
	noInput  time.Duration = math.MaxInt64 - 1
	finished time.Duration = math.MaxInt64
)

// resetReady sets every slot of the engine's readiness array for window to
// askNow, or finished for a done fragment, and returns it.
func (e *Engine) resetReady(window []*exec.Fragment) []time.Duration {
	e.ready = slices.Grow(e.ready[:0], len(window))[:len(window)]
	for i, f := range window {
		e.ready[i] = askNow
		if f.Done() {
			e.ready[i] = finished
		}
	}
	return e.ready
}

// readiness is the slot of a fragment whose input has nothing now: finished,
// or the instant its input's NextArrival names, or noInput.
func readiness(f *exec.Fragment) time.Duration {
	if f.Done() {
		return finished
	}
	if at, ok := f.NextArrival(); ok {
		return at
	}
	return noInput
}

// wrapperEvent maps the mediator's report on a faulted wrapper onto the
// policy event that ends the phase.
func wrapperEvent(ev exec.WrapperEvent, window []*exec.Fragment) Event {
	kind := EventSourceDown
	switch ev.Kind {
	case sim.EvSourceUp:
		kind = EventSourceUp
	case sim.EvFailover:
		kind = EventFailover
	}
	return Event{Kind: kind, Wrapper: ev.Wrapper, Window: window}
}

// processPhase is one DQP execution phase (§3.2) over an arbitrary policy's
// scheduling plan. In priority mode it processes batches from the
// highest-priority fragment that has data, falling down the priority list
// on data gaps and returning to the top after every batch; in round-robin
// mode it sweeps the plan processing one batch from every runnable
// fragment per pass (the materialization discipline of MA's phase 1).
// Both modes share everything else: fault transitions, finalization of
// fragments whose input ran out, starvation handling and the stall to the
// next arrival. It returns the interruption event that ends the phase; the
// error is non-nil when a dead wrapper has no recovery or the phase spins
// without advancing the clock.
// A fragment is asked for input only when its readiness slot is not after
// the clock, and the stall wakes at the least slot (DESIGN.md, "Readiness
// array", says when a slot learns its instant and why it stays exact).
func (e *Engine) processPhase(sp SchedulingPlan) (Event, error) {
	med := e.med
	// window is the effective plan: Sticky plans narrow it, and its slots of
	// ready, to end at the last fragment a batch was processed from.
	window := sp.Frags
	ready := e.resetReady(window)
	var lastNow time.Duration = -1
	spins := 0
	for {
		med.Work.Iterations++
		now := med.Now()
		if now == lastNow {
			spins++
			if spins > 1_000_000 {
				var detail string
				for _, f := range window {
					at, ok := f.NextArrival()
					detail += fmt.Sprintf(" [%s done=%v runnable=%v avail=%d exhausted=%v next=%v,%v]",
						f.Label, f.Done(), f.Runnable(now), f.In.Available(now), f.In.Exhausted(), at, ok)
				}
				return Event{}, fmt.Errorf("core: DQP spin at t=%v; %s;%s", now, e.pendingSummary(), detail)
			}
		} else {
			lastNow, spins = now, 0
		}
		if ev, ok := med.WrapperTransition(now); ok {
			return wrapperEvent(ev, window), nil
		}
		if sp.Timeout > 0 {
			med.CM.Observe(now)
			if w := med.CM.RateChanged(); w != "" {
				if med.Trace.Enabled() {
					med.Trace.Add(now, sim.EvRateChange, "delivery rate of %s changed", w)
				}
				return Event{Kind: EventRateChange, Wrapper: w, Window: window}, nil
			}
		}
		acted := false
		alldone := true
		for i, f := range window {
			if ready[i] == finished {
				continue
			}
			alldone = false
			// Only a processed batch moves the clock: a priority pass reads
			// its start instant here, a sweep the instant after the previous
			// fragment's batch.
			if ready[i] > med.Now() {
				continue // no input before the slot's instant
			}
			if f.Runnable(med.Now()) {
				if sp.Sticky {
					window, ready = window[:i+1], ready[:i+1]
				}
				n, overflow := f.ProcessBatch(med.Cfg.BatchTuples)
				if overflow {
					return Event{Kind: EventOverflow, Frag: f, Window: window}, nil
				}
				if f.Done() && !sp.RoundRobin {
					return Event{Kind: EventEndOfQF, Frag: f, Window: window}, nil
				}
				// A batch that ended on an empty pop is an ask that found nothing.
				ready[i] = askNow
				if f.Done() || n < med.Cfg.BatchTuples {
					ready[i] = readiness(f)
				}
				acted = true
				if sp.RoundRobin {
					continue // sweep on to the next fragment
				}
				break // return to the highest-priority queue
			}
			med.Work.EmptyAsks++
			if f.In.Exhausted() {
				// Input is gone, and Runnable found no stranded output, so
				// the fragment finalizes: that ends a priority phase and is
				// progress in a sweep, not a reason to stall.
				f.ProcessBatch(0)
				if f.Done() {
					if !sp.RoundRobin {
						return Event{Kind: EventEndOfQF, Frag: f, Window: window}, nil
					}
					acted = true
				}
			}
			ready[i] = readiness(f)
		}
		if alldone {
			return Event{Kind: EventSPDone, Window: window}, nil
		}
		if acted {
			continue
		}
		// Every fragment of the window is starved. The mediator's fault layer
		// checks for permanently silent wrappers first — probing, declaring
		// death, failing over — before the scrambling reaction or the default
		// stall/timeout.
		ev, ok, err := med.ProbeSilent(window)
		if err != nil {
			return Event{}, err
		}
		if ok {
			if ev.Kind == sim.EvRetry {
				ready = e.resetReady(window) // the clock stalled to a probe
				continue
			}
			return wrapperEvent(ev, window), nil
		}
		// A Sticky window is the scrambling engine's, and so is its reaction
		// to starvation; otherwise the engine stalls until the earliest
		// arrival, or reports a timeout.
		next := slices.Min(ready)
		if sp.Sticky {
			return Event{Kind: EventStarved, Window: window, Next: next, HasNext: next < noInput}, nil
		}
		if next >= noInput {
			// No future arrivals on any scheduled fragment; the remaining
			// fragments must be able to finish without input.
			return Event{Kind: EventSPDone, Window: window}, nil
		}
		if sp.Timeout > 0 && next-now > sp.Timeout {
			if med.Trace.Enabled() {
				med.Trace.Add(now, sim.EvTimeout, "all scheduled fragments starved (next arrival %.3fs away)",
					(next - now).Seconds())
			}
			return Event{Kind: EventTimeout, Window: window, Next: next, HasNext: true}, nil
		}
		if sp.Timeout > 0 && med.Trace.Enabled() {
			med.Trace.Add(now, sim.EvStall, "stall %.6fs", (next - now).Seconds())
		}
		med.Work.Stalls++
		med.Clock.Stall(next)
	}
}
