package source

import (
	"testing"
	"time"

	"dqs/internal/sim"
)

func TestSharedScheduleDeterministicAndMonotone(t *testing.T) {
	tab := makeTable(t, 200)
	build := func() *Shared {
		sh, err := NewShared("W", tab, sim.NewRNG(7), WithMeanWait(us(10)), WithInitialDelay(us(50)))
		if err != nil {
			t.Fatal(err)
		}
		return sh
	}
	a, b := build(), build()
	if a.Rows() != 200 {
		t.Fatalf("schedule carries %d rows, want 200", a.Rows())
	}
	last := time.Duration(-1)
	for i := 0; i < a.Rows(); i++ {
		if a.SendAt(i) != b.SendAt(i) {
			t.Fatalf("row %d: schedules diverge with equal seeds: %v vs %v", i, a.SendAt(i), b.SendAt(i))
		}
		if a.SendAt(i) < last {
			t.Fatalf("row %d: schedule went backwards: %v < %v", i, a.SendAt(i), last)
		}
		last = a.SendAt(i)
	}
	if a.SendAt(0) < us(50) {
		t.Errorf("first send %v before the initial delay", a.SendAt(0))
	}
}

// A tap on a shared stream must deliver the exact arrival sequence a private
// wrapper with the same seed and delivery options would: the shared schedule
// is the unthrottled pump schedule, so with a window wide enough to never
// block, tap and private wrapper are indistinguishable.
func TestSharedTapMatchesPrivateSource(t *testing.T) {
	const rows = 300
	tab := makeTable(t, rows)
	opts := []Option{WithMeanWait(us(10)), WithInitialDelay(us(25))}

	qPriv := newQueue(tab, rows)
	if _, err := New("W", tab, qPriv, sim.NewRNG(7), us(1), append(opts, allColumns(tab))...); err != nil {
		t.Fatal(err)
	}
	sh, err := NewShared("W", tab, sim.NewRNG(7), opts...)
	if err != nil {
		t.Fatal(err)
	}
	qTap := newQueue(tab, rows)
	if _, err := New("W", tab, qTap, sim.NewRNG(99), us(1), allColumns(tab), WithSharedStream(sh)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		ap, okp := qPriv.NextArrival()
		at, okt := qTap.NextArrival()
		if !okp || !okt {
			t.Fatalf("row %d: queue drained early (private %v, tap %v)", i, okp, okt)
		}
		if ap != at {
			t.Fatalf("row %d: tap arrival %v != private arrival %v", i, at, ap)
		}
		tp, tt := pop(qPriv, ap), pop(qTap, at)
		if tp[0] != tt[0] {
			t.Fatalf("row %d: tap tuple %v != private tuple %v", i, tt, tp)
		}
	}
}

// A query admitted mid-stream replays the already-produced prefix no
// earlier than its attach instant, then rides the live tail unchanged.
func TestSharedLateAttachFloorsReplayAtStartTime(t *testing.T) {
	const rows = 50
	tab := makeTable(t, rows)
	sh, err := NewShared("W", tab, sim.NewRNG(7), WithMeanWait(us(10)))
	if err != nil {
		t.Fatal(err)
	}
	attach := sh.SendAt(rows/2) + 1 // mid-stream: half the rows already sent
	q := newQueue(tab, rows)
	if _, err := New("W", tab, q, sim.NewRNG(3), us(1), allColumns(tab), WithSharedStream(sh), WithStartTime(attach)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		at, ok := q.NextArrival()
		if !ok {
			t.Fatalf("row %d: queue drained early", i)
		}
		if at < attach+us(1) {
			t.Fatalf("row %d arrived at %v, before the attach instant %v", i, at, attach)
		}
		if want := sh.SendAt(i) + us(1); at < want {
			t.Fatalf("row %d arrived at %v, before its physical send %v", i, at, want)
		}
		pop(q, at)
	}
}

func TestSharedRefcountsTaps(t *testing.T) {
	tab := makeTable(t, 10)
	sh, err := NewShared("W", tab, sim.NewRNG(7), WithMeanWait(0))
	if err != nil {
		t.Fatal(err)
	}
	var taps []*Source
	for i := 0; i < 3; i++ {
		q := newQueue(tab, 16)
		src, err := New("W", tab, q, sim.NewRNG(int64(i+1)), 0, allColumns(tab), WithSharedStream(sh))
		if err != nil {
			t.Fatal(err)
		}
		taps = append(taps, src)
	}
	if sh.Refs() != 3 || sh.Taps() != 3 {
		t.Fatalf("refs=%d taps=%d after 3 attaches, want 3/3", sh.Refs(), sh.Taps())
	}
	taps[0].Detach()
	taps[0].Detach() // idempotent
	if sh.Refs() != 2 || sh.Taps() != 3 {
		t.Fatalf("refs=%d taps=%d after one detach, want 2/3", sh.Refs(), sh.Taps())
	}
	for _, src := range taps[1:] {
		src.Detach()
	}
	if sh.Refs() != 0 || sh.Taps() != 3 {
		t.Fatalf("refs=%d taps=%d after all detaches, want 0/3", sh.Refs(), sh.Taps())
	}
}

func TestSharedRejectsIncompatibleOptions(t *testing.T) {
	tab := makeTable(t, 10)
	if _, err := NewShared("W", tab, sim.NewRNG(7), AsStandby()); err == nil {
		t.Error("shared stream accepted a standby option")
	}
	other, err := NewShared("W", tab, sim.NewRNG(7), WithMeanWait(0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewShared("W", tab, sim.NewRNG(7), WithSharedStream(other)); err == nil {
		t.Error("shared stream accepted a nested shared-stream option")
	}
	q := newQueue(tab, 16)
	if _, err := New("W", tab, q, sim.NewRNG(1), 0, allColumns(tab), WithSharedStream(other), AsStandby()); err == nil {
		t.Error("standby replica attached to a shared stream")
	}
	small := makeTable(t, 5)
	if _, err := New("W", small, q, sim.NewRNG(1), 0, allColumns(small), WithSharedStream(other)); err == nil {
		t.Error("tap accepted a shared stream with a mismatched row count")
	}
}
