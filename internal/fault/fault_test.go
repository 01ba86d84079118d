package fault

import (
	"strings"
	"testing"
	"time"
)

func TestParseRoundTrip(t *testing.T) {
	// String renders in the Parse grammar, so parse→print→parse must be a
	// fixed point.
	specs := []string{
		"C:stall@100+150ms",
		"C:burst@100+500x300us",
		"D:drop@5000+2s",
		"D:drop@5000+2s,restart",
		"A:kill@9000",
		"A:replica",
		"A:replica,wait=1ms,connect=50ms,restart",
		"C:burst@100+500x300us;D:drop@5000+2s;A:kill@9000;A:replica,connect=50ms",
	}
	for _, spec := range specs {
		p, err := Parse(spec)
		if err != nil {
			t.Errorf("Parse(%q): %v", spec, err)
			continue
		}
		printed := p.String()
		q, err := Parse(printed)
		if err != nil {
			t.Errorf("Parse(String(%q)) = Parse(%q): %v", spec, printed, err)
			continue
		}
		if q.String() != printed {
			t.Errorf("round trip not a fixed point: %q -> %q -> %q", spec, printed, q.String())
		}
	}
}

func TestParseFields(t *testing.T) {
	p, err := Parse("C:burst@100+500x300us;D:drop@5000+2s,restart;A:replica,connect=50ms")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Clauses) != 2 || len(p.Replicas) != 1 {
		t.Fatalf("parsed %d clauses, %d replicas; want 2, 1", len(p.Clauses), len(p.Replicas))
	}
	b := p.Clauses[0]
	if b.Source != "C" || b.Kind != Burst || b.Row != 100 || b.Rows != 500 || b.Wait != 300*time.Microsecond {
		t.Errorf("burst clause = %+v", b)
	}
	d := p.Clauses[1]
	if d.Source != "D" || d.Kind != Disconnect || d.Row != 5000 || d.Down != 2*time.Second || !d.Restart {
		t.Errorf("drop clause = %+v", d)
	}
	r := p.Replicas[0]
	if r.Source != "A" || r.Connect != 50*time.Millisecond || r.Wait != 0 || r.Restart {
		t.Errorf("replica = %+v", r)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"noseparator",
		":stall@5+1s",
		"C:frobnicate@5",
		"C:stall@5",                // missing +DUR
		"C:stall@x+1s",             // bad row
		"C:stall@5+fast",           // bad duration
		"C:burst@5+1s",             // missing NxDUR
		"C:burst@5+ax1s",           // bad count
		"C:kill@next",              // bad row
		"C:replica,speed=9",        // unknown option
		"C:stall@5+0s",             // zero duration (Validate)
		"C:drop@-1+1s",             // negative row (Validate)
		"C:burst@5+0x1s",           // zero row count (Validate)
		"C:kill@5;C:kill@9",        // double kill (Validate)
		"C:kill@5;C:stall@9+1s",    // clause after death (Validate)
		"C:stall@5+1s;C:drop@5+1s", // two faults on one row (Validate)
		"C:replica;C:replica",      // double replica (Validate)
		"C:burst@5+3x9223372036s",  // [0, 2w] overflows a Duration (Validate)
		"C:replica,wait=5000000000s",
	}
	for _, spec := range bad {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) accepted", spec)
		}
	}
}

func TestPlanNilSafety(t *testing.T) {
	var p *Plan
	if p.Active() {
		t.Error("nil plan Active")
	}
	if err := p.Validate(); err != nil {
		t.Errorf("nil plan Validate: %v", err)
	}
	if got := p.ClausesFor("C"); got != nil {
		t.Errorf("nil plan ClausesFor = %v", got)
	}
	if _, ok := p.ReplicaFor("C"); ok {
		t.Error("nil plan has a replica")
	}
	if got := p.Sources(); got != nil {
		t.Errorf("nil plan Sources = %v", got)
	}
	if p.String() != "" {
		t.Errorf("nil plan String = %q", p.String())
	}
	if (&Plan{}).Active() {
		t.Error("empty plan Active")
	}
}

func TestClausesForSortsByRow(t *testing.T) {
	p := &Plan{Clauses: []Clause{
		{Source: "C", Kind: Stall, Row: 90, Down: time.Second},
		{Source: "D", Kind: Kill, Row: 5},
		{Source: "C", Kind: Stall, Row: 10, Down: time.Second},
	}}
	cs := p.ClausesFor("C")
	if len(cs) != 2 || cs[0].Row != 10 || cs[1].Row != 90 {
		t.Errorf("ClausesFor(C) = %+v, want rows [10 90]", cs)
	}
	if got := p.Sources(); len(got) != 2 || got[0] != "C" || got[1] != "D" {
		t.Errorf("Sources = %v, want [C D]", got)
	}
}

func TestSeedFor(t *testing.T) {
	// Deterministic, keyed by both inputs.
	if SeedFor(1, "C") != SeedFor(1, "C") {
		t.Error("SeedFor not deterministic")
	}
	if SeedFor(1, "C") == SeedFor(1, "D") {
		t.Error("SeedFor ignores the name")
	}
	if SeedFor(1, "C") == SeedFor(2, "C") {
		t.Error("SeedFor ignores the seed")
	}
	// A ~replica suffix must diverge from the primary's stream.
	if SeedFor(7, "q1/C") == SeedFor(7, "q1/C~replica") {
		t.Error("replica shares the primary's fault stream")
	}
}

func TestParseErrorsAreDescriptive(t *testing.T) {
	_, err := Parse("C:frobnicate@5")
	if err == nil || !strings.Contains(err.Error(), "frobnicate") {
		t.Errorf("unknown-fault error %v does not quote the clause", err)
	}
}
