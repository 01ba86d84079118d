package traceview

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// TupleTimeline renders the output ramp of one run: one row per result-
// count milestone (tuple 1, 2, 4, ... — Result.TupleTimeline), its
// production instant marked on a shared time axis ending at the response
// time. The shape makes streaming delivery visible at a glance: an early
// first mark with the rest bunched at the right edge means the answer
// trickled then burst; evenly spaced marks mean a steady stream.
func TupleTimeline(w io.Writer, timeline []time.Duration, response time.Duration, width int) error {
	if len(timeline) == 0 {
		_, err := fmt.Fprintln(w, "(no output tuples)")
		return err
	}
	if width < 16 {
		width = 16
	}
	horizon := response
	if last := timeline[len(timeline)-1]; horizon < last {
		horizon = last
	}
	if horizon == 0 {
		horizon = 1
	}
	if _, err := fmt.Fprintf(w, "%14s  |%s| 0 .. %.3fs\n", "output ramp", strings.Repeat("-", width), horizon.Seconds()); err != nil {
		return err
	}
	for i, at := range timeline {
		col := int(float64(at) / float64(horizon) * float64(width-1))
		if col >= width {
			col = width - 1
		}
		row := []byte(strings.Repeat(" ", width))
		row[col] = '*'
		if _, err := fmt.Fprintf(w, "tuple %8d  |%s| %.3fs\n", 1<<i, row, at.Seconds()); err != nil {
			return err
		}
	}
	return nil
}
