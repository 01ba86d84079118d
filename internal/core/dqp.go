package core

import (
	"fmt"
	"time"

	"dqs/internal/exec"
	"dqs/internal/sim"
)

// nextArrival returns the earliest next input arrival among the unfinished
// fragments. It is the hot stall primitive of the phase loop.
func nextArrival(frags []*exec.Fragment) (time.Duration, bool) {
	var best time.Duration
	found := false
	for _, f := range frags {
		if f.Done() {
			continue
		}
		if at, ok := f.NextArrival(); ok && (!found || at < best) {
			best, found = at, true
		}
	}
	return best, found
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
func (e *Engine) processPhase(sp SchedulingPlan) (Event, error) {
	med := e.med
	// window is the effective plan: Sticky plans narrow it to end at the
	// last fragment a batch was processed from.
	window := sp.Frags
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
			if f.Done() {
				continue
			}
			alldone = false
			// Only a processed batch moves the clock: a priority pass reads
			// its start instant here, a sweep the instant after the previous
			// fragment's batch.
			if f.Runnable(med.Now()) {
				if sp.Sticky {
					window = window[:i+1]
				}
				_, overflow := f.ProcessBatch(med.Cfg.BatchTuples)
				if overflow {
					return Event{Kind: EventOverflow, Frag: f, Window: window}, nil
				}
				if f.Done() && !sp.RoundRobin {
					return Event{Kind: EventEndOfQF, Frag: f, Window: window}, nil
				}
				acted = true
				if sp.RoundRobin {
					continue // sweep on to the next fragment
				}
				break // return to the highest-priority queue
			}
			med.Work.EmptyAsks++
			if f.In.Exhausted() {
				// Input is gone; let the fragment finalize.
				pendingBefore := f.PendingOutputs()
				f.ProcessBatch(0)
				if f.Done() && !sp.RoundRobin {
					return Event{Kind: EventEndOfQF, Frag: f, Window: window}, nil
				}
				if f.Done() || f.PendingOutputs() < pendingBefore {
					// Finalization completed the fragment or sank stranded
					// output: that is progress, so re-enter at the top of the
					// priority list (or sweep on) rather than falling through
					// to the stall/timeout computation below.
					acted = true
					if !sp.RoundRobin {
						break
					}
				}
			}
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
				continue // the clock stalled to a probe
			}
			return wrapperEvent(ev, window), nil
		}
		// A Sticky window is the scrambling engine's, and so is its reaction
		// to starvation; otherwise the engine stalls until the earliest
		// arrival, or reports a timeout.
		if sp.Sticky {
			return Event{Kind: EventStarved, Window: window}, nil
		}
		next, ok := nextArrival(window)
		if !ok {
			// No future arrivals on any scheduled fragment; the remaining
			// fragments must be able to finish without input.
			return Event{Kind: EventSPDone, Window: window}, nil
		}
		if sp.Timeout > 0 && next-now > sp.Timeout {
			if med.Trace.Enabled() {
				med.Trace.Add(now, sim.EvTimeout, "all scheduled fragments starved (next arrival %.3fs away)",
					(next - now).Seconds())
			}
			return Event{Kind: EventTimeout, Window: window}, nil
		}
		if sp.Timeout > 0 && med.Trace.Enabled() {
			med.Trace.Add(now, sim.EvStall, "stall %.6fs", (next - now).Seconds())
		}
		med.Work.Stalls++
		med.Clock.Stall(next)
	}
}
