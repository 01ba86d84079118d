package server

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"dqs/internal/exec"
	"dqs/internal/fault"
	"dqs/internal/reftest"
	"dqs/internal/sim"
)

// lateEvents returns the trace events of the given kinds that name a wrapper
// of a query ("label:rel") and come after that query's completion event.
func lateEvents(tr *sim.Trace, reports []Report, kinds ...sim.EventKind) []string {
	done := map[string]bool{}
	var late []string
	for _, ev := range tr.Events {
		for _, rep := range reports {
			if ev.Kind == sim.EvPhase && ev.Note == fmt.Sprintf("query %q complete", rep.Label) {
				done[rep.Label] = true
			}
		}
		for _, k := range kinds {
			if ev.Kind != k {
				continue
			}
			for _, rep := range reports {
				if done[rep.Label] && strings.Contains(ev.Note, " "+rep.Label+":") {
					late = append(late, fmt.Sprintf("%v %s (%s completed at %v)", ev.At, ev.Note, rep.Label, rep.CompletedAt))
				}
			}
		}
	}
	return late
}

// TestCompletedQueryRaisesNoRateChange runs a burst of four queries with no
// cap, two of them cancelled by their timeouts, and requires that no
// delivery-rate change names a wrapper of a query once that query has
// completed: its queues have left the communication manager, so their
// arrivals no longer interrupt the queries still running.
func TestCompletedQueryRaisesNoRateChange(t *testing.T) {
	queries := testQueries(t, 4, 0)
	for i := range queries {
		queries[i].Priority = i
	}
	queries[1].Timeout = 250 * time.Millisecond
	queries[3].Timeout = 50 * time.Microsecond
	cfg := exec.DefaultConfig()
	tr := &sim.Trace{}
	cfg.Trace = tr
	reports, stats := runServer(t, Config{Exec: cfg, Discipline: FIFO, Fairness: FairGlobal}, queries)
	if stats.Cancelled != 2 || !reports[3].Cancelled {
		t.Fatalf("%d queries cancelled (q3: %v), want q1 and q3", stats.Cancelled, reports[3].Cancelled)
	}
	if tr.Count(sim.EvRateChange) == 0 {
		t.Fatal("the batch recorded no rate change: nothing to check")
	}
	for _, ev := range lateEvents(tr, reports, sim.EvRateChange) {
		t.Errorf("rate change after completion: %s", ev)
	}
}

// TestCancelledQueryFaultsStayWithIt cancels a query whose wrapper has a
// scheduled outage still ahead of it: the outage's disconnect and reconnect
// belong to the cancelled query and must not be reported to the survivor,
// which completes with its full answer.
func TestCancelledQueryFaultsStayWithIt(t *testing.T) {
	queries := testQueries(t, 2, 0)
	queries[0].Timeout = time.Millisecond
	plan, err := fault.Parse("A:drop@100+300ms")
	if err != nil {
		t.Fatal(err)
	}
	cfg := exec.DefaultConfig()
	cfg.Faults = plan
	tr := &sim.Trace{}
	cfg.Trace = tr
	reports, _ := runServer(t, Config{Exec: cfg}, queries)
	if !reports[0].Cancelled || reports[1].Cancelled {
		t.Fatalf("cancelled: q0 %v, q1 %v; want q0 only", reports[0].Cancelled, reports[1].Cancelled)
	}
	if tr.Count(sim.EvSourceDown) == 0 {
		t.Fatal("the survivor's outage was never reported: nothing to check")
	}
	for _, ev := range lateEvents(tr, reports, sim.EvSourceDown, sim.EvSourceUp, sim.EvRetry) {
		t.Errorf("fault transition after completion: %s", ev)
	}
	t.Logf("q0 cancelled at %v; q1 completed at %v after %d replans",
		reports[0].CompletedAt, reports[1].CompletedAt, reports[1].Result.Replans)
	w := queries[1].Workload
	if got, want := reports[1].Result.OutputRows, int64(len(reftest.Eval(w.Root, w.Dataset))); got != want {
		t.Errorf("q1 returned %d rows, the reference evaluator %d", got, want)
	}
}
