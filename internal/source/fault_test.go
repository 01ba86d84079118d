package source

import (
	"testing"
	"time"

	"dqs/internal/comm"
	"dqs/internal/fault"
	"dqs/internal/sim"
)

// drain pops every buffered tuple and returns the arrival times.
func drain(q *comm.Queue) []time.Duration {
	var out []time.Duration
	now := time.Duration(1 << 62)
	for q.Len() > 0 {
		at, _ := q.NextArrival()
		out = append(out, at)
		pop(q, now)
	}
	return out
}

// --- source.Phase contract edge cases ---

func TestPhaseEmptyScheduleRejected(t *testing.T) {
	tab := makeTable(t, 10)
	q := newQueue(tab, 4)
	if _, err := New("W", tab, q, sim.NewRNG(1), 0, allColumns(tab), WithPhases()); err == nil {
		t.Error("empty phase list accepted; the schedule needs at least one phase")
	}
}

func TestPhaseZeroMeanWait(t *testing.T) {
	// W = 0 is a valid phase: instantaneous production, not an error.
	tab := makeTable(t, 50)
	q := newQueue(tab, 50)
	src, err := New("W", tab, q, sim.NewRNG(1), 0, allColumns(tab), WithPhases(Phase{FromRow: 0, W: 0}))
	if err != nil {
		t.Fatal(err)
	}
	if !src.Exhausted() {
		t.Fatal("zero-wait source should drain eagerly")
	}
	for i, at := range drain(q) {
		if at != 0 {
			t.Fatalf("tuple %d arrived at %v, want 0 under W=0", i, at)
		}
	}
}

func TestPhaseInitialDelayWithBoundaryAtRowZero(t *testing.T) {
	// The initial delay stacks on top of the row-0 phase's wait: both apply
	// to the first tuple, later tuples only pay their phase wait.
	tab := makeTable(t, 10)
	q := newQueue(tab, 10)
	if _, err := New("W", tab, q, sim.NewRNG(1), 0, allColumns(tab),
		WithPhases(Phase{FromRow: 0, W: 0}, Phase{FromRow: 5, W: 0}),
		WithInitialDelay(2*time.Second)); err != nil {
		t.Fatal(err)
	}
	ats := drain(q)
	if ats[0] < 2*time.Second {
		t.Errorf("first tuple at %v, want >= 2s initial delay", ats[0])
	}
	if ats[9] != ats[0] {
		t.Errorf("later tuples re-paid the initial delay: first=%v last=%v", ats[0], ats[9])
	}
}

func TestPhaseOutOfOrderRowsRejected(t *testing.T) {
	// The contract: FromRow strictly increasing, starting at 0. Decreasing,
	// duplicate and non-zero-start schedules are all construction errors.
	tab := makeTable(t, 10)
	mk := func(phases ...Phase) error {
		q := newQueue(tab, 4)
		_, err := New("W", tab, q, sim.NewRNG(1), 0, allColumns(tab), WithPhases(phases...))
		return err
	}
	if err := mk(Phase{FromRow: 0, W: 0}, Phase{FromRow: 7, W: us(1)}, Phase{FromRow: 3, W: us(2)}); err == nil {
		t.Error("decreasing FromRow accepted")
	}
	if err := mk(Phase{FromRow: 0, W: 0}, Phase{FromRow: 7, W: us(1)}, Phase{FromRow: 7, W: us(2)}); err == nil {
		t.Error("duplicate FromRow accepted")
	}
	if err := mk(Phase{FromRow: 2, W: 0}); err == nil {
		t.Error("schedule not starting at row 0 accepted")
	}
}

// --- fault injection at the source ---

func script(t *testing.T, clauses ...fault.Clause) *fault.Script {
	t.Helper()
	return &fault.Script{Clauses: clauses, RNG: sim.NewRNG(99)}
}

func TestFaultStallDelaysOneRow(t *testing.T) {
	tab := makeTable(t, 10)
	mk := func(opts ...Option) []time.Duration {
		q := newQueue(tab, 10)
		if _, err := New("W", tab, q, sim.NewRNG(1), 0, append(opts, allColumns(tab))...); err != nil {
			t.Fatal(err)
		}
		return drain(q)
	}
	plain := mk(WithMeanWait(0))
	stalled := mk(WithMeanWait(0), WithFaults(script(t,
		fault.Clause{Source: "W", Kind: fault.Stall, Row: 4, Down: time.Second})))
	for i := 0; i < 4; i++ {
		if stalled[i] != plain[i] {
			t.Errorf("tuple %d before the stall moved: %v vs %v", i, stalled[i], plain[i])
		}
	}
	for i := 4; i < 10; i++ {
		if stalled[i] != plain[i]+time.Second {
			t.Errorf("tuple %d after the stall at %v, want %v", i, stalled[i], plain[i]+time.Second)
		}
	}
}

func TestFaultBurstOverridesWait(t *testing.T) {
	tab := makeTable(t, 100)
	q := newQueue(tab, 100)
	src, err := New("W", tab, q, sim.NewRNG(1), 0, allColumns(tab),
		WithMeanWait(0), WithFaults(script(t,
			fault.Clause{Source: "W", Kind: fault.Burst, Row: 10, Rows: 20, Wait: us(500)})))
	if err != nil {
		t.Fatal(err)
	}
	if !src.Exhausted() {
		t.Fatal("not exhausted")
	}
	ats := drain(q)
	if ats[9] != 0 {
		t.Errorf("pre-burst tuple arrived at %v, want 0", ats[9])
	}
	span := ats[29] - ats[9]
	want := 20 * us(500)
	if span < want/2 || span > want*2 {
		t.Errorf("burst span %v, want ≈%v", span, want)
	}
	if ats[99] != ats[30] {
		t.Errorf("post-burst tuples kept paying the burst wait: %v vs %v", ats[99], ats[30])
	}
	// The advertised mean wait ignores faults: bounds see the configured
	// schedule, the burst is the surprise.
	if got := src.MeanWait(); got != 0 {
		t.Errorf("MeanWait = %v, want the fault-free 0", got)
	}
}

func TestFaultDisconnectShiftsTail(t *testing.T) {
	tab := makeTable(t, 10)
	mk := func(opts ...Option) ([]time.Duration, *Source) {
		q := newQueue(tab, 10)
		src, err := New("W", tab, q, sim.NewRNG(1), 0, append(opts, allColumns(tab))...)
		if err != nil {
			t.Fatal(err)
		}
		return drain(q), src
	}
	plain, _ := mk(WithMeanWait(us(10)))
	dropped, src := mk(WithMeanWait(us(10)), WithFaults(script(t,
		fault.Clause{Source: "W", Kind: fault.Disconnect, Row: 6, Down: time.Second})))
	for i := 0; i < 6; i++ {
		if dropped[i] != plain[i] {
			t.Errorf("tuple %d before the outage moved: %v vs %v", i, dropped[i], plain[i])
		}
	}
	for i := 6; i < 10; i++ {
		if dropped[i] != plain[i]+time.Second {
			t.Errorf("tuple %d after the outage at %v, want %v", i, dropped[i], plain[i]+time.Second)
		}
	}
	outs := src.Outages()
	if len(outs) != 1 || outs[0].Permanent {
		t.Fatalf("outages = %+v, want one transient entry", outs)
	}
	if outs[0].To-outs[0].From != time.Second {
		t.Errorf("outage length %v, want 1s", outs[0].To-outs[0].From)
	}
}

func TestFaultDisconnectRestartPaysPrefix(t *testing.T) {
	tab := makeTable(t, 10)
	mk := func(restart bool) []time.Duration {
		q := newQueue(tab, 10)
		if _, err := New("W", tab, q, sim.NewRNG(1), 0, allColumns(tab), WithMeanWait(us(10)), WithFaults(script(t,
			fault.Clause{Source: "W", Kind: fault.Disconnect, Row: 6, Down: time.Second, Restart: restart}))); err != nil {
			t.Fatal(err)
		}
		return drain(q)
	}
	replay, restart := mk(false), mk(true)
	if restart[9] <= replay[9] {
		t.Errorf("restart reconnect (%v) not slower than replay (%v)", restart[9], replay[9])
	}
}

func TestFaultKillStopsDelivery(t *testing.T) {
	tab := makeTable(t, 10)
	q := newQueue(tab, 10)
	src, err := New("W", tab, q, sim.NewRNG(1), 0, allColumns(tab), WithMeanWait(us(10)), WithFaults(script(t,
		fault.Clause{Source: "W", Kind: fault.Kill, Row: 6})))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(drain(q)); got != 6 {
		t.Fatalf("killed source delivered %d tuples, want 6", got)
	}
	if !src.Dead() {
		t.Error("source not Dead after kill")
	}
	if src.Exhausted() {
		t.Error("dead source reports Exhausted — silence, not completion")
	}
	if src.NextRow() != 6 {
		t.Errorf("NextRow = %d, want 6", src.NextRow())
	}
	outs := src.Outages()
	if len(outs) != 1 || !outs[0].Permanent {
		t.Fatalf("outages = %+v, want one permanent entry", outs)
	}
}

func TestStandbyReplicaActivate(t *testing.T) {
	tab := makeTable(t, 10)
	q := newQueue(tab, 10)
	if _, err := New("W", tab, q, sim.NewRNG(1), 0, allColumns(tab), WithMeanWait(us(10)), WithFaults(script(t,
		fault.Clause{Source: "W", Kind: fault.Kill, Row: 6}))); err != nil {
		t.Fatal(err)
	}
	head := drain(q)
	rep, err := New("W~replica", tab, q, sim.NewRNG(2), 0, allColumns(tab), WithMeanWait(us(10)), AsStandby())
	if err != nil {
		t.Fatal(err)
	}
	if q.Len() != 0 {
		t.Fatal("standby replica pumped before Activate")
	}
	failAt := head[len(head)-1] + 50*time.Millisecond
	rep.Activate(failAt, 6, 10*time.Millisecond, false)
	tail := drain(q)
	if len(head)+len(tail) != 10 {
		t.Fatalf("primary+replica delivered %d+%d tuples, want 10", len(head), len(tail))
	}
	if tail[0] < failAt+10*time.Millisecond {
		t.Errorf("replica's first tuple at %v, before failover+connect %v", tail[0], failAt+10*time.Millisecond)
	}
	if !rep.Exhausted() {
		t.Error("replica not exhausted after draining")
	}
}

// burstModel is the clause scan the pump ran before bursts were compiled
// into the schedule: the first listed burst covering row sets its wait,
// otherwise the advertised phase does.
func burstModel(phases []Phase, faults []fault.Clause, row int) time.Duration {
	for _, c := range faults {
		if c.Kind == fault.Burst && row >= c.Row && row < c.Row+c.Rows {
			return c.Wait
		}
	}
	return waitIn(phases, row)
}

// TestSpliceBurstsMatchesClauseScan compares the compiled schedule row by
// row against the clause scan, over overlapping, adjacent and end-of-table
// bursts, mixed with the clauses the pump's cursor handles.
func TestSpliceBurstsMatchesClauseScan(t *testing.T) {
	const nrows = 40
	burst := func(row, rows int, w time.Duration) fault.Clause {
		return fault.Clause{Kind: fault.Burst, Row: row, Rows: rows, Wait: w}
	}
	two := []Phase{{FromRow: 0, W: us(10)}, {FromRow: 20, W: us(30)}}
	for _, tc := range []struct {
		name   string
		phases []Phase
		faults []fault.Clause
	}{
		{"none", two, []fault.Clause{{Kind: fault.Stall, Row: 3, Down: us(5)}}},
		{"inside a phase", two, []fault.Clause{burst(5, 4, us(90))}},
		{"across a phase boundary", two, []fault.Clause{burst(15, 10, us(90))}},
		{"at row zero", two, []fault.Clause{burst(0, 3, us(90))}},
		{"adjacent", two, []fault.Clause{burst(5, 5, us(90)), burst(10, 5, us(70))}},
		{"overlapping", two, []fault.Clause{burst(5, 10, us(90)), burst(8, 10, us(70)), burst(8, 2, us(50))}},
		{"nested", two, []fault.Clause{burst(5, 20, us(90)), burst(10, 2, us(70))}},
		{"end of table", two, []fault.Clause{burst(35, 5, us(90))}},
		{"past the end", two, []fault.Clause{burst(38, 100, us(90))}},
		{"whole table, one phase", []Phase{{W: us(10)}}, []fault.Clause{burst(0, nrows, us(90))}},
		{"same wait as the phase", two, []fault.Clause{burst(18, 4, us(30))}},
		{"among other clauses", two, []fault.Clause{
			{Kind: fault.Stall, Row: 2, Down: us(5)}, burst(4, 6, us(90)),
			{Kind: fault.Disconnect, Row: 6, Down: us(5)}, burst(9, 3, us(70)),
			{Kind: fault.Kill, Row: 30},
		}},
	} {
		sched := spliceBursts(tc.phases, tc.faults, nrows)
		if err := ValidateSchedule(sched, 0); err != nil {
			t.Errorf("%s: compiled schedule %v: %v", tc.name, sched, err)
			continue
		}
		for row := range nrows {
			if got, want := waitIn(sched, row), burstModel(tc.phases, tc.faults, row); got != want {
				t.Errorf("%s: row %d waits %v in %v, the clause scan says %v", tc.name, row, got, sched, want)
			}
		}
	}
}
