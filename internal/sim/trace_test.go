package sim

import (
	"strings"
	"testing"
	"time"
)

func TestTraceNilIsSafe(t *testing.T) {
	var tr *Trace
	tr.Add(time.Second, EvBatch, "ignored %d", 1)
	if tr.Count(EvBatch) != 0 {
		t.Error("nil trace counted events")
	}
	var b strings.Builder
	if err := tr.Dump(&b); err != nil {
		t.Errorf("nil dump errored: %v", err)
	}
	if b.Len() != 0 {
		t.Errorf("nil dump wrote %q", b.String())
	}
}

func TestTraceRecordsAndCounts(t *testing.T) {
	tr := &Trace{}
	tr.Add(time.Second, EvStall, "stall %dms", 5)
	tr.Add(2*time.Second, EvStall, "plain message")
	tr.Add(3*time.Second, EvDegrade, "degrade p_A")
	if got := tr.Count(EvStall); got != 2 {
		t.Errorf("Count(EvStall) = %d, want 2", got)
	}
	if got := tr.Count(EvTimeout); got != 0 {
		t.Errorf("Count(EvTimeout) = %d, want 0", got)
	}
	if tr.Events[0].Note != "stall 5ms" {
		t.Errorf("formatted note = %q", tr.Events[0].Note)
	}
	if tr.Events[1].Note != "plain message" {
		t.Errorf("unformatted note = %q", tr.Events[1].Note)
	}
}

func TestTraceDumpFormat(t *testing.T) {
	tr := &Trace{}
	tr.Add(1500*time.Millisecond, EvFragmentEnd, "p_A done")
	var b strings.Builder
	if err := tr.Dump(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "1.500000s") || !strings.Contains(out, "fragment-end") || !strings.Contains(out, "p_A done") {
		t.Errorf("dump = %q", out)
	}
}

func TestEventKindStrings(t *testing.T) {
	for _, tc := range []struct {
		k    EventKind
		want string
	}{
		{EvSchedule, "schedule"}, {EvBatch, "batch"},
		{EvStall, "stall"}, {EvFragmentEnd, "fragment-end"}, {EvRateChange, "rate-change"},
		{EvTimeout, "timeout"}, {EvDegrade, "degrade"}, {EvMemRepair, "mem-repair"},
		{EvPhase, "phase"}, {EventKind(99), "event(99)"},
	} {
		if got := tc.k.String(); got != tc.want {
			t.Errorf("EventKind(%d).String() = %q, want %q", int(tc.k), got, tc.want)
		}
	}
}
