package traceview

import (
	"strings"
	"testing"
	"time"
)

func TestTupleTimelineRendersRamp(t *testing.T) {
	timeline := []time.Duration{ // tuples 1, 2, 4, 8
		200 * time.Millisecond,
		500 * time.Millisecond,
		900 * time.Millisecond,
		1800 * time.Millisecond,
	}
	var sb strings.Builder
	if err := TupleTimeline(&sb, timeline, 2*time.Second, 40); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // header + one row per milestone
		t.Fatalf("%d lines:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], "output ramp") || !strings.Contains(lines[0], "2.000s") {
		t.Errorf("header missing axis horizon:\n%s", out)
	}
	for i, want := range []string{"tuple        1", "tuple        2", "tuple        4", "tuple        8"} {
		if !strings.HasPrefix(lines[i+1], want) {
			t.Errorf("row %d = %q, want prefix %q", i+1, lines[i+1], want)
		}
	}
	// Marks move rightward with time.
	prev := -1
	for _, line := range lines[1:] {
		col := strings.Index(line, "*")
		if col <= prev {
			t.Fatalf("milestone marks not monotone:\n%s", out)
		}
		prev = col
	}
}

func TestTupleTimelineDegenerateInputs(t *testing.T) {
	var sb strings.Builder
	if err := TupleTimeline(&sb, nil, time.Second, 40); err != nil {
		t.Fatal(err)
	}
	if got := sb.String(); got != "(no output tuples)\n" {
		t.Fatalf("empty timeline rendered %q", got)
	}

	// A milestone past the reported response time stretches the axis instead
	// of clipping, and tiny widths are clamped to a legible minimum.
	sb.Reset()
	if err := TupleTimeline(&sb, []time.Duration{3 * time.Second}, time.Second, 1); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "3.000s") {
		t.Errorf("horizon not stretched to last milestone:\n%s", out)
	}
	if !strings.Contains(out, strings.Repeat("-", 16)) {
		t.Errorf("width not clamped to minimum:\n%s", out)
	}
}
