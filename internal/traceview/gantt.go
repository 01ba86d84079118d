// Package traceview renders execution traces for humans: an ASCII Gantt
// chart of fragment lifetimes (first processed batch to completion or
// abandonment), which makes the scheduler's interleaving — concurrent
// materializations, chains picked up the moment their tables complete,
// stalls — directly visible.
package traceview

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"dqs/internal/sim"
)

// span is one fragment's observed activity window.
type span struct {
	label      string
	start, end time.Duration
	hasStart   bool
	hasEnd     bool
	abandoned  bool // ended by abandonment (its input died), not completion
}

// GanttFor renders like gantt with a leading header naming the scheduling
// policy that produced the trace (callers pass the run's Result.Strategy, so
// charts of user-registered policies are labelled like the built-ins).
func GanttFor(w io.Writer, tr *sim.Trace, width int, policy string) error {
	if policy != "" {
		if _, err := fmt.Fprintf(w, "fragment schedule under %s\n", policy); err != nil {
			return err
		}
	}
	return gantt(w, tr, width)
}

// gantt renders fragment lifetimes from a trace, one row per fragment in
// start order. width is the number of time columns. A span ends in ']' when
// its fragment completed, in 'x' when it was abandoned and in '>' when the
// trace has no end for it.
func gantt(w io.Writer, tr *sim.Trace, width int) error {
	if tr == nil || len(tr.Events) == 0 {
		_, err := fmt.Fprintln(w, "(empty trace)")
		return err
	}
	if width < 16 {
		width = 16
	}
	spans := collect(tr)
	if len(spans) == 0 {
		_, err := fmt.Fprintln(w, "(no fragment activity in trace)")
		return err
	}
	var horizon time.Duration
	for _, s := range spans {
		if s.end > horizon {
			horizon = s.end
		}
	}
	if horizon == 0 {
		horizon = 1
	}
	colOf := func(t time.Duration) int {
		c := int(float64(t) / float64(horizon) * float64(width-1))
		if c < 0 {
			c = 0
		}
		if c >= width {
			c = width - 1
		}
		return c
	}
	labelWidth := 0
	for _, s := range spans {
		if len(s.label) > labelWidth {
			labelWidth = len(s.label)
		}
	}
	if _, err := fmt.Fprintf(w, "%*s  |%s| 0 .. %.3fs\n", labelWidth, "", strings.Repeat("-", width), horizon.Seconds()); err != nil {
		return err
	}
	for _, s := range spans {
		row := []byte(strings.Repeat(" ", width))
		a, b := colOf(s.start), colOf(s.end)
		for c := a; c <= b; c++ {
			row[c] = '='
		}
		row[a] = '['
		end, note := byte('>'), ""
		switch {
		case s.abandoned:
			end, note = 'x', " abandoned"
		case s.hasEnd:
			end = ']'
		}
		row[b] = end
		if _, err := fmt.Fprintf(w, "%*s  |%s| %.3fs-%.3fs%s\n", labelWidth, s.label, row, s.start.Seconds(), s.end.Seconds(), note); err != nil {
			return err
		}
	}
	return nil
}

// collect extracts per-fragment spans from first-batch and fragment-end
// events.
func collect(tr *sim.Trace) []span {
	byLabel := make(map[string]*span)
	order := []string{}
	get := func(label string) *span {
		if s, ok := byLabel[label]; ok {
			return s
		}
		s := &span{label: label}
		byLabel[label] = s
		order = append(order, label)
		return s
	}
	for _, e := range tr.Events {
		switch e.Kind {
		case sim.EvBatch:
			label, ok := strings.CutSuffix(e.Note, " first batch")
			if !ok {
				continue
			}
			s := get(label)
			if !s.hasStart {
				s.start, s.hasStart = e.At, true
				if e.At > s.end {
					s.end = e.At
				}
			}
		case sim.EvFragmentEnd:
			// Note format: "<label> <verb> (...)", the verb "done" or
			// "abandoned".
			head, _, _ := strings.Cut(e.Note, " (")
			i := strings.LastIndexByte(head, ' ')
			verb := head[i+1:]
			if i < 0 || verb != "done" && verb != "abandoned" {
				continue
			}
			s := get(head[:i])
			s.end, s.hasEnd, s.abandoned = e.At, true, verb == "abandoned"
			if !s.hasStart {
				s.start, s.hasStart = e.At, true
			}
		}
	}
	spans := make([]span, 0, len(byLabel))
	for _, label := range order {
		spans = append(spans, *byLabel[label])
	}
	sort.SliceStable(spans, func(i, j int) bool {
		if spans[i].start != spans[j].start {
			return spans[i].start < spans[j].start
		}
		return spans[i].label < spans[j].label
	})
	return spans
}
