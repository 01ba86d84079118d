package core

import (
	"fmt"
	"time"

	"dqs/internal/exec"
	"dqs/internal/sim"
)

// nextArrival returns the earliest next input arrival among the unfinished
// fragments. It is the hot stall primitive of the phase loop, shared with
// State.NextArrival.
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

// processPhase is one DQP execution phase (§3.2) over an arbitrary policy's
// scheduling plan. In priority mode it processes batches from the
// highest-priority fragment that has data, falling down the priority list
// on data gaps and returning to the top after every batch; in round-robin
// mode it sweeps the plan processing one batch from every runnable
// fragment per pass (the materialization discipline of MA's phase 1). It
// returns the interruption event that ends the phase; the error is
// non-nil only when the policy's starvation handler failed.
func (e *Engine) processPhase(sp SchedulingPlan) (Event, error) {
	if sp.RoundRobin {
		return e.processRoundRobin(sp)
	}
	med := e.med
	starve, _ := e.pol.(StarvationHandler)
	// window is the effective plan: Sticky plans narrow it to end at the
	// last fragment a batch was processed from.
	window := sp.Frags
	var lastNow time.Duration = -1
	spins := 0
	for {
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
				panic("core: DQP spin at t=" + now.String() + detail)
			}
		} else {
			lastNow, spins = now, 0
		}
		if e.flt != nil {
			if ev, ok := e.flt.transition(now, window); ok {
				return ev, nil
			}
		}
		if sp.ObserveRates {
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
			if f.Runnable(now) {
				if sp.Sticky {
					window = window[:i+1]
				}
				_, overflow := f.ProcessBatch(med.Cfg.BatchTuples)
				if overflow {
					return Event{Kind: EventOverflow, Frag: f, Window: window}, nil
				}
				if f.Done() {
					return Event{Kind: EventEndOfQF, Frag: f, Window: window}, nil
				}
				acted = true
				break // return to the highest-priority queue
			}
			if f.In.Exhausted() {
				// Input is gone; let the fragment finalize.
				pendingBefore := f.PendingOutputs()
				f.ProcessBatch(0)
				if f.Done() {
					return Event{Kind: EventEndOfQF, Frag: f, Window: window}, nil
				}
				if f.PendingOutputs() < pendingBefore {
					// Finalization sank stranded output: that is progress,
					// so re-enter at the top of the priority list rather
					// than falling through to the stall/timeout
					// computation below.
					acted = true
					break
				}
			}
		}
		if alldone {
			return Event{Kind: EventSPDone, Window: window}, nil
		}
		if acted {
			continue
		}
		// Every fragment of the window is starved. The resilience layer (when
		// faults are active) checks for permanently silent wrappers first —
		// probing, declaring death, failing over — before the policy's own
		// starvation reaction or the default stall/timeout.
		if e.flt != nil {
			act, ev, err := e.flt.onStarved(window)
			if err != nil {
				return Event{}, err
			}
			switch act {
			case faultStalled:
				continue
			case faultEvent:
				return ev, nil
			}
		}
		// A policy with its own starvation reaction (scrambling) takes over
		// here; otherwise the engine stalls until the earliest arrival, or
		// reports a timeout.
		if starve != nil {
			eff := sp
			eff.Frags = window
			resched, err := starve.OnStarved(e.st, eff)
			if err != nil {
				return Event{}, err
			}
			if resched {
				return Event{Kind: EventResched, Window: window}, nil
			}
			continue
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
		if sp.TraceStalls && med.Trace.Enabled() {
			med.Trace.Add(now, sim.EvStall, "stall %.6fs", (next - now).Seconds())
		}
		med.Clock.Stall(next)
	}
}

// processRoundRobin is the sweep of MA phase 1 and of the DPHJ feeds: one
// batch from every runnable fragment per pass, stalling to the earliest arrival
// when a full pass made no progress. Fragment completions do not interrupt
// the phase; it ends only when every fragment is done (or has no future
// arrival) or on overflow.
func (e *Engine) processRoundRobin(sp SchedulingPlan) (Event, error) {
	med := e.med
	for {
		if e.flt != nil {
			if ev, ok := e.flt.transition(med.Now(), sp.Frags); ok {
				return ev, nil
			}
		}
		progressed := false
		alldone := true
		for _, f := range sp.Frags {
			if f.Done() {
				continue
			}
			alldone = false
			if f.Runnable(med.Now()) {
				if _, overflow := f.ProcessBatch(med.Cfg.BatchTuples); overflow {
					return Event{Kind: EventOverflow, Frag: f, Window: sp.Frags}, nil
				}
				progressed = true
			}
		}
		if alldone {
			return Event{Kind: EventSPDone, Window: sp.Frags}, nil
		}
		if !progressed {
			// Every unfinished wrapper is quiet: check for dead wrappers,
			// then stall to the earliest arrival, or end the phase when no
			// arrival is ever coming.
			if e.flt != nil {
				act, ev, err := e.flt.onStarved(sp.Frags)
				if err != nil {
					return Event{}, err
				}
				switch act {
				case faultStalled:
					continue
				case faultEvent:
					return ev, nil
				}
			}
			next, ok := e.st.NextArrival(sp)
			if !ok {
				return Event{Kind: EventSPDone, Window: sp.Frags}, nil
			}
			med.Clock.Stall(next)
		}
	}
}
