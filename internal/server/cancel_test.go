package server

import (
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"

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
	for _, j := range plan.Joins(root) {
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
// at every planning point of its execution in turn. The batch runs at a
// 1 MiB grant over shared streams behind a cap of three, two of its four
// queries scanning one workload instance. A reference run records the
// planning instants; then,
// per (query, instant), that query's Timeout is set so the cancel lands
// exactly there, and the run must keep the governor ledger consistent after
// every round and empty at exit, cancel that query and no other, stream every
// survivor's full result (as a tuple multiset against the reference
// evaluator) and leave no goroutine behind.
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

	// run executes the batch with query victim (if any) timing out after
	// timeout, checking the ledger after every round; it returns the
	// reports, the planning instants and each query's streamed multiset.
	shared := 0
	run := func(victim int, timeout time.Duration) ([]Report, []time.Duration, []tupleBag) {
		t.Helper()
		s, err := New(Config{Exec: cfg, Mode: Fused, MaxActive: 3})
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
				ArriveAt: time.Duration(i) * 2 * time.Millisecond}
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
			held, resident, used := m.Gov.HeldTotal(), m.Gov.ResidentBytes(), m.Mem.Used()
			if held+resident != used {
				t.Fatalf("victim q%d timeout %v, t=%v: ledger mismatch: held %d + resident %d != used %d",
					victim, timeout, m.Now(), held, resident, used)
			}
		}
		reports, stats, err := s.Run()
		if err != nil {
			t.Fatalf("victim q%d timeout %v: %v", victim, timeout, err)
		}
		shared = stats.SharedStreams
		if held := med.Gov.HeldTotal(); held != 0 {
			t.Errorf("victim q%d timeout %v: %d grant bytes still held at exit", victim, timeout, held)
		}
		return reports, instants, got
	}

	goroutines := runtime.NumGoroutine()
	base, instants, got := run(-1, 0)
	for i := range base {
		if base[i].Cancelled || !got[i].equal(want[i]) {
			t.Fatalf("reference run: query q%d cancelled=%v or streamed a wrong result", i, base[i].Cancelled)
		}
	}
	if shared == 0 {
		t.Fatal("reference run shared no wrapper stream between q0 and q1")
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
					t.Errorf("victim q%d at %v: query q%d cancelled=%v", victim, at, i, rep.Cancelled)
				}
				if i == victim {
					if rep.CompletedAt != at {
						t.Errorf("victim q%d: cancelled at %v, aimed at planning instant %v", victim, rep.CompletedAt, at)
					}
				} else if !got[i].equal(want[i]) {
					t.Errorf("victim q%d at %v: survivor q%d streamed a result differing from the reference evaluator's",
						victim, at, i)
				}
			}
		}
	}
	if cases < 4*len(ws) {
		t.Errorf("only %d (query, planning instant) pairs: the batch is too short to mean anything", cases)
	}
	if n := runtime.NumGoroutine(); n != goroutines {
		t.Errorf("%d goroutines after %d runs, %d before", n, cases+1, goroutines)
	}
	t.Logf("%d planning instants, %d (query, instant) cancellations", len(instants), cases)
}
