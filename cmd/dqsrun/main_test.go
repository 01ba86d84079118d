package main

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestSlowFlagsParse(t *testing.T) {
	s := slowFlags{}
	if err := s.Set("A=2.5"); err != nil {
		t.Fatal(err)
	}
	if err := s.Set("F=0"); err != nil {
		t.Fatal(err)
	}
	if s["A"] != 2.5 || s["F"] != 0 {
		t.Errorf("parsed = %v", s)
	}
	for _, bad := range []string{"A", "A=", "A=x", "A=-1", "=2"} {
		if err := s.Set(bad); err == nil && bad != "=2" {
			t.Errorf("accepted %q", bad)
		}
	}
	// Non-finite and clock-overflowing retrieval times name the flag and
	// the offending text instead of turning into a garbage waiting time.
	for _, bad := range []string{"A=NaN", "A=Inf", "A=-Inf", "A=1e30"} {
		err := s.Set(bad)
		if err == nil {
			t.Errorf("accepted %q", bad)
		} else if !strings.Contains(err.Error(), "-slow") || !strings.Contains(err.Error(), bad) {
			t.Errorf("%q: error %q does not name the flag and the value", bad, err)
		}
	}
	if s.String() == "" {
		t.Error("String empty")
	}
}

func TestRunSmallestEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the engine")
	}
	// Exercise the full command path (flag wiring aside) on the small
	// workload with every strategy.
	const wmin = 20 * time.Microsecond
	for _, strat := range []string{"SEQ", "MA", "DSE", "SCR"} {
		if err := run(strat, true, wmin, 64, 1, false, false, 1, false, "", 1, false, slowFlags{"A": 0.5}); err != nil {
			t.Errorf("%s: %v", strat, err)
		}
	}
	if err := run("BOGUS", true, wmin, 64, 1, false, false, 1, false, "", 1, false, nil); err == nil {
		t.Error("unknown strategy accepted")
	}
	if err := run("SEQ", true, wmin, 64, 1, false, false, 1, false, "", 1, false, slowFlags{"ZZ": 1}); err == nil {
		t.Error("unknown slow relation accepted")
	}
	// Fault flags: a full scenario (disconnect + death + failover) and the
	// partial-result path both complete through the command entry point.
	if err := run("DSE", true, wmin, 64, 1, false, false, 1, false, "C:drop@500+40ms;D:kill@700;D:replica,connect=10ms", 1, false, nil); err != nil {
		t.Errorf("fault scenario: %v", err)
	}
	if err := run("DSE", true, wmin, 64, 1, false, false, 1, false, "D:kill@700", 1, true, nil); err != nil {
		t.Errorf("partial-result scenario: %v", err)
	}
	if err := run("DSE", true, wmin, 64, 1, false, false, 1, false, "D:bogus@1", 1, false, nil); err == nil {
		t.Error("malformed fault spec accepted")
	}
}

func TestRunGovernorAndStream(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the engine")
	}
	const wmin = 20 * time.Microsecond
	// The engine under memory pressure, with streaming delivery on: the run
	// must complete through the command path end to end.
	if err := run("DSE", true, wmin, 1, 1, false, false, 1, true, "", 1, false, slowFlags{"A": 0.5}); err != nil {
		t.Errorf("stream run at 1 MB: %v", err)
	}
}

func TestListStrategies(t *testing.T) {
	var b strings.Builder
	listStrategies(&b)
	out := b.String()
	for _, name := range []string{"SEQ", "MA", "DSE", "SCR", "DPHJ"} {
		if !strings.Contains(out, name) {
			t.Errorf("listing missing %s:\n%s", name, out)
		}
	}
	if !strings.Contains(out, "iterator model") {
		t.Errorf("listing missing descriptions:\n%s", out)
	}
}

// TestRunRejectsNonFiniteNumbers: a -mem or -bmt that is not a usable number
// is refused by name, not converted into a garbage grant or run silently; a
// waiting time whose [0, 2w] draw interval overflows a time.Duration (-wmin,
// a burst or replica wait in -faults) is an error naming the source and the
// value, not an Int63n panic; and -faults naming a relation the workload
// does not have, or a row the relation does not reach, is refused like -slow
// does.
func TestRunRejectsNonFiniteNumbers(t *testing.T) {
	const wmin = 20 * time.Microsecond
	for _, tc := range []struct {
		memMB, bmt float64
		wmin       time.Duration
		faults     string
		want       []string
	}{
		{math.NaN(), 1, wmin, "", []string{"-mem", "NaN"}},
		{math.Inf(1), 1, wmin, "", []string{"-mem", "+Inf"}},
		{1e30, 1, wmin, "", []string{"-mem", "1e+30"}},
		{0, 1, wmin, "", []string{"-mem", "0"}},
		{-4, 1, wmin, "", []string{"-mem", "-4"}},
		{64, math.NaN(), wmin, "", []string{"BMT", "NaN"}},
		{64, math.Inf(1), wmin, "", []string{"BMT", "+Inf"}},
		{64, 1, 5000000000 * time.Second, "", []string{`source "A"`, "1388888h53m20s"}},
		{64, 1, wmin, "A:burst@100+500x9223372036s", []string{"A burst@100", "2562047h47m16s"}},
		{64, 1, wmin, "A:kill@5;A:replica,wait=9223372036s", []string{"A replica", "2562047h47m16s"}},
		{64, 1, wmin, "Z:kill@5", []string{"-faults", `"Z"`}},
		{64, 1, wmin, "A:kill@5;Z:replica", []string{"-faults", `"Z"`}},
		{64, 1, wmin, "A:kill@99999999", []string{"-faults", "A:kill@99999999", "15000 rows"}},
	} {
		err := run("SEQ", true, tc.wmin, tc.memMB, tc.bmt, false, false, 1, false, tc.faults, 1, false, nil)
		if err == nil {
			t.Errorf("%+v accepted", tc)
			continue
		}
		for _, w := range tc.want {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("%+v: error %q does not mention %q", tc, err, w)
			}
		}
	}
}
