package sim

import (
	"fmt"
	"io"
	"time"
)

// EventKind classifies trace events emitted by the engine.
type EventKind int

// Trace event kinds.
const (
	EvSchedule    EventKind = iota // a scheduling plan was adopted
	EvBatch                        // a fragment processed a batch
	EvStall                        // the processor stalled waiting for data
	EvFragmentEnd                  // a query fragment terminated
	EvRateChange                   // the CM signalled a delivery-rate change
	EvTimeout                      // all scheduled fragments starved
	EvDegrade                      // a PC was degraded into MF/CF
	EvMemRepair                    // the DQO repaired a non-M-schedulable PC
	EvPhase                        // a strategy phase boundary (e.g. MA)
	EvSourceDown                   // a wrapper stopped delivering (fault)
	EvSourceUp                     // a wrapper resumed delivering
	EvRetry                        // the engine probed a silent wrapper
	EvFailover                     // a replica took over a dead wrapper
	EvFirstTuple                   // the first result tuple was delivered
)

var eventNames = map[EventKind]string{
	EvSchedule:    "schedule",
	EvBatch:       "batch",
	EvStall:       "stall",
	EvFragmentEnd: "fragment-end",
	EvRateChange:  "rate-change",
	EvTimeout:     "timeout",
	EvDegrade:     "degrade",
	EvMemRepair:   "mem-repair",
	EvPhase:       "phase",
	EvSourceDown:  "source-down",
	EvSourceUp:    "source-up",
	EvRetry:       "retry",
	EvFailover:    "failover",
	EvFirstTuple:  "first-tuple",
}

// String returns the human-readable name of the event kind.
func (k EventKind) String() string {
	if s, ok := eventNames[k]; ok {
		return s
	}
	return fmt.Sprintf("event(%d)", int(k))
}

// Event is one timestamped entry of an execution trace.
type Event struct {
	At   time.Duration
	Kind EventKind
	Note string
}

// Trace records execution events for debugging, testing and the dqsrun tool.
// A nil *Trace is valid and records nothing, so tracing can be left off in
// benchmarks at zero cost beyond a nil check.
type Trace struct {
	Events []Event
}

// Enabled reports whether the trace records events. Hot paths should guard
// Add calls carrying formatting arguments behind it: the ...any boxing
// allocates at the call site even when the receiver is nil.
func (t *Trace) Enabled() bool { return t != nil }

// Add appends one event. Safe on a nil receiver.
func (t *Trace) Add(at time.Duration, kind EventKind, format string, args ...any) {
	if t == nil {
		return
	}
	note := format
	if len(args) > 0 {
		note = fmt.Sprintf(format, args...)
	}
	t.Events = append(t.Events, Event{At: at, Kind: kind, Note: note})
}

// Count returns the number of recorded events of the given kind.
func (t *Trace) Count(kind EventKind) int {
	if t == nil {
		return 0
	}
	n := 0
	for _, e := range t.Events {
		if e.Kind == kind {
			n++
		}
	}
	return n
}

// Dump writes the trace, one event per line, to w.
func (t *Trace) Dump(w io.Writer) error {
	if t == nil {
		return nil
	}
	for _, e := range t.Events {
		if _, err := fmt.Fprintf(w, "%12.6fs  %-13s %s\n", e.At.Seconds(), e.Kind, e.Note); err != nil {
			return err
		}
	}
	return nil
}
