package exec

import (
	"strings"
	"testing"
	"time"
)

func TestQueueSourceAccounting(t *testing.T) {
	w := smallFig5(t)
	rt, err := NewRuntime(testConfig(), w.Root, w.Dataset, uniform(w, time.Microsecond))
	if err != nil {
		t.Fatal(err)
	}
	src := rt.qsrcs["E"]
	total := 1500 // |E| at small scale
	if got := src.Remaining(); got != total {
		t.Fatalf("Remaining = %d, want %d", got, total)
	}
	if src.Exhausted() {
		t.Fatal("fresh source exhausted")
	}
	// Drain everything, tracking Remaining.
	popped := 0
	for !src.Exhausted() {
		at, ok := src.NextArrival()
		if !ok {
			t.Fatalf("no arrival with %d popped", popped)
		}
		rt.Clock.Stall(at)
		n := src.Available(rt.Now())
		if n == 0 {
			t.Fatalf("no availability at announced arrival %v", at)
		}
		if got := src.pop(rt.Now(), 1<<40).n; got != n {
			t.Fatalf("pop moved %d of %d available", got, n)
		}
		for i := 0; i < n; i++ {
			src.Credit(rt.Now())
		}
		popped += n
		if got := src.Remaining(); got != total-popped {
			t.Fatalf("Remaining = %d after %d pops", got, popped)
		}
	}
	if popped != total {
		t.Errorf("popped %d, want %d", popped, total)
	}
	if _, ok := src.NextArrival(); ok {
		t.Error("exhausted source announced an arrival")
	}
}

func TestResultStringAndTotalWork(t *testing.T) {
	w := smallFig5(t)
	rt, err := NewRuntime(testConfig(), w.Root, w.Dataset, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := runMA(rt)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalWork() < res.BusyTime {
		t.Errorf("TotalWork %v below BusyTime %v", res.TotalWork(), res.BusyTime)
	}
	s := res.String()
	for _, want := range []string{"MA:", "response=", "out=", "mat="} {
		if !strings.Contains(s, want) {
			t.Errorf("Result.String() = %q missing %q", s, want)
		}
	}
}
