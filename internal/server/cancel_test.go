package server

import (
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"

	"dqs/internal/core"
	"dqs/internal/exec"
	"dqs/internal/plan"
	"dqs/internal/reftest"
	"dqs/internal/relation"
	"dqs/internal/sim"
	"dqs/internal/workload"
)

// liveColumns returns the output-schema positions that carry data: join keys
// and scan-predicate columns. Everything else is projected away at the
// wrapper and reads zero in the engine's output.
func liveColumns(root *plan.Node) []int {
	live := make(map[relation.ColRef]bool)
	dec, err := plan.Decompose(root)
	if err != nil {
		panic(err)
	}
	for _, j := range dec.Joins {
		live[j.BuildKey], live[j.ProbeKey] = true, true
	}
	for _, s := range plan.Scans(root) {
		if s.Pred != nil {
			live[s.Pred.Col] = true
		}
	}
	var cols []int
	for i, c := range root.Schema.Cols {
		if live[c] {
			cols = append(cols, i)
		}
	}
	return cols
}

// tupleBag is a multiset of tuples projected onto cols.
type tupleBag map[string]int

func (b tupleBag) add(cols []int, t relation.Tuple) {
	key := make([]int64, len(cols))
	for i, c := range cols {
		key[i] = t[c]
	}
	b[fmt.Sprint(key)]++
}

func (b tupleBag) equal(o tupleBag) bool {
	if len(b) != len(o) {
		return false
	}
	for k, n := range b {
		if o[k] != n {
			return false
		}
	}
	return true
}

// TestFusedCancelAtEveryPlanningPoint cancels each query of one fused batch
// at every planning point of its execution in turn, under every registered
// strategy. The batch runs at a 1 MiB grant over shared streams, two of its
// four queries scanning one workload instance, arriving staggered behind a
// cap of three, so later queries attach mid-run. A reference run records the
// planning instants; then, per (query, instant), that query's Timeout is set
// so the cancel lands exactly there, and the run must keep the governor
// ledger consistent after every round and empty at exit, cancel that query
// and no other, stream every survivor's full result (as a tuple multiset
// against the reference evaluator) and leave no goroutine behind.
func TestFusedCancelAtEveryPlanningPoint(t *testing.T) {
	rng := sim.NewRNG(11)
	spec := workload.RandomSpec{Relations: 4, MinCard: 150, MaxCard: 500, FanoutCap: 1.5}
	var ws []*workload.Workload
	for range 3 {
		w, err := workload.Random(rng, spec)
		if err != nil {
			t.Fatal(err)
		}
		ws = append(ws, w)
	}
	ws = []*workload.Workload{ws[0], ws[0], ws[1], ws[2]}
	cols := make([][]int, len(ws))
	want := make([]tupleBag, len(ws))
	for i, w := range ws {
		cols[i], want[i] = liveColumns(w.Root), tupleBag{}
		for _, tup := range reftest.Eval(w.Root, w.Dataset) {
			want[i].add(cols[i], tup)
		}
	}
	cfg := exec.DefaultConfig()
	cfg.SharedStreams = true
	cfg.MemoryBytes = 1 << 20

	goroutines := runtime.NumGoroutine()
	runs := 0
	for _, strategy := range core.StrategyNames() {
		gap, maxActive := 2*time.Millisecond, 3
		// run executes the batch with query victim (if any) timing out after
		// timeout, checking the ledger after every round; it returns the
		// reports, the planning instants and each query's streamed multiset.
		shared := 0
		run := func(victim int, timeout time.Duration) ([]Report, []time.Duration, []tupleBag) {
			t.Helper()
			runs++
			s, err := New(Config{Exec: cfg, MaxActive: maxActive, Strategy: strategy})
			if err != nil {
				t.Fatal(err)
			}
			got := make([]tupleBag, len(ws))
			for i, w := range ws {
				d := make(map[string]exec.Delivery, w.Catalog.Len())
				for _, name := range w.Catalog.Names() {
					d[name] = exec.Delivery{MeanWait: 20 * time.Microsecond}
				}
				q := Query{Label: fmt.Sprintf("q%d", i), Workload: w, Deliveries: d,
					ArriveAt: time.Duration(i) * gap}
				if i == victim {
					q.Timeout = timeout
				}
				bag, c := tupleBag{}, cols[i]
				got[i] = bag
				q.Sink = exec.SinkFunc(func(_ time.Duration, tup relation.Tuple) { bag.add(c, tup) })
				if err := s.Submit(q); err != nil {
					t.Fatal(err)
				}
			}
			var instants []time.Duration
			var med *exec.Mediator
			s.probe = func(m *exec.Mediator) {
				med = m
				instants = append(instants, m.Now())
				held, resident, used := m.Mem.HeldTotal(), m.Mem.ResidentBytes(), m.Mem.Used()
				if held+resident != used {
					t.Fatalf("%s victim q%d timeout %v, t=%v: ledger mismatch: held %d + resident %d != used %d",
						strategy, victim, timeout, m.Now(), held, resident, used)
				}
			}
			reports, stats, err := s.Run()
			if err != nil {
				t.Fatalf("%s victim q%d timeout %v: %v", strategy, victim, timeout, err)
			}
			shared = stats.SharedStreams
			if held, used := med.Mem.HeldTotal(), med.Mem.Used(); held != 0 || used != 0 {
				t.Errorf("%s victim q%d timeout %v: %d grant bytes still held, %d in use at exit",
					strategy, victim, timeout, held, used)
			}
			return reports, instants, got
		}

		base, instants, got := run(-1, 0)
		for i := range base {
			if base[i].Cancelled || !got[i].equal(want[i]) {
				t.Fatalf("%s reference run: query q%d cancelled=%v or streamed a wrong result", strategy, i, base[i].Cancelled)
			}
		}
		if shared == 0 {
			t.Fatalf("%s reference run shared no wrapper stream between q0 and q1", strategy)
		}
		slices.Sort(instants)
		instants = slices.Compact(instants)

		cases := 0
		for victim := range ws {
			for _, at := range instants {
				if at <= base[victim].AdmittedAt || at >= base[victim].CompletedAt {
					continue
				}
				cases++
				reports, _, got := run(victim, at-base[victim].AdmittedAt)
				for i, rep := range reports {
					if rep.Cancelled != (i == victim) {
						t.Errorf("%s victim q%d at %v: query q%d cancelled=%v", strategy, victim, at, i, rep.Cancelled)
					}
					if i == victim {
						if rep.CompletedAt != at {
							t.Errorf("%s victim q%d: cancelled at %v, aimed at planning instant %v", strategy, victim, rep.CompletedAt, at)
						}
					} else if !got[i].equal(want[i]) {
						t.Errorf("%s victim q%d at %v: survivor q%d streamed a result differing from the reference evaluator's",
							strategy, victim, at, i)
					}
				}
			}
		}
		t.Logf("%s: %d planning instants, %d (query, instant) cancellations", strategy, len(instants), cases)
		if strategy == "DPHJ" {
			// DPHJ runs everything admitted in one phase: its planning points
			// are admission instants, where no timeout can fall. Core's
			// TestCancelQueryAtEveryRound cancels it there.
			continue
		}
		if cases < 4*len(ws) {
			t.Errorf("%s: only %d (query, planning instant) pairs: the batch is too short to mean anything", strategy, cases)
		}
	}
	if n := runtime.NumGoroutine(); n != goroutines {
		t.Errorf("%d goroutines after %d runs, %d before", n, runs, goroutines)
	}
}
