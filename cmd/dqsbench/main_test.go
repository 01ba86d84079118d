package main

import (
	"strings"
	"testing"
)

func TestRunRejectsNonPositiveReps(t *testing.T) {
	for _, reps := range []int{0, -1, -3} {
		err := run("table1", reps, 1, true, false, false, "", 1)
		if err == nil {
			t.Fatalf("reps=%d accepted; a non-positive repetition count must not silently fall back to one run", reps)
		}
		if !strings.Contains(err.Error(), "-reps") {
			t.Errorf("reps=%d: error %q does not name the flag", reps, err)
		}
	}
}

func TestRunRejectsUnknownExperiment(t *testing.T) {
	err := run("bogus", 1, 1, true, false, false, "", 1)
	if err == nil {
		t.Fatal("unknown experiment accepted; it must not silently run nothing")
	}
	if !strings.Contains(err.Error(), `"bogus"`) {
		t.Errorf("error %q does not name the experiment", err)
	}
	// The error must list every valid name, mirroring the scheduler
	// registry's unknown-strategy error.
	for _, name := range experimentNames() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list experiment %q", err, name)
		}
	}
}

// Every advertised experiment name must reach the dispatch (no stale
// entries in experimentNames): with an invalid rep count the run fails on
// flag validation for valid names, never on the unknown-experiment check.
func TestExperimentNamesAreCurrent(t *testing.T) {
	for _, name := range experimentNames() {
		err := run(name, 0, 1, true, false, false, "", 1)
		if err == nil || !strings.Contains(err.Error(), "-reps") {
			t.Errorf("%s: want the -reps validation error, got %v", name, err)
		}
	}
}

// A -faults clause that can never strike used to run the sweep fault-free
// and exit 0: one naming a relation no workload scans, and one at or past
// the relation's last row at the selected scale (A has 15000 rows at -small,
// so row 15000 would strike at full scale only).
func TestRunRejectsFaultsThatCanNeverStrike(t *testing.T) {
	for _, tc := range []struct{ spec, want string }{
		{"Z:kill@5", `"Z"`},
		{"A:kill@15000", "15000 rows"},
	} {
		err := run("fig6", 1, 1, true, false, false, tc.spec, 1)
		if err == nil {
			t.Errorf("-faults %q accepted; it can never strike", tc.spec)
			continue
		}
		for _, want := range []string{"-faults", tc.spec, tc.want} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("-faults %q: error %q does not name %s", tc.spec, err, want)
			}
		}
	}
}

func TestRunRejectsNonPositiveParallel(t *testing.T) {
	for _, parallel := range []int{0, -4} {
		err := run("table1", 1, parallel, true, false, false, "", 1)
		if err == nil {
			t.Fatalf("parallel=%d accepted", parallel)
		}
		if !strings.Contains(err.Error(), "-parallel") {
			t.Errorf("parallel=%d: error %q does not name the flag", parallel, err)
		}
	}
}
