package server

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"dqs/internal/core"
	"dqs/internal/exec"
	"dqs/internal/source"
)

// eagerDSE is the DSE policy with every wrapper of every query it schedules
// — the initial batch and mid-run attachments — put behind a Resume-only
// producer, which forces the queues' eager resume-per-credit fallback. It
// names itself DSE so Results compare equal to the plain policy's.
const eagerDSE = "DSE/eager-wrappers"

func init() {
	err := core.RegisterPolicy(eagerDSE, func(st *core.State) (core.Policy, error) {
		inner, err := core.NewPolicy(st, "DSE")
		if err != nil {
			return nil, err
		}
		for _, rt := range st.Runtimes() {
			shimWrappers(st.Mediator(), rt)
		}
		return &eagerPolicy{Policy: inner}, nil
	})
	if err != nil {
		panic(err)
	}
}

type resumeOnly struct{ src *source.Source }

func (p resumeOnly) Resume(now time.Duration) { p.src.Resume(now) }

func shimWrappers(med *exec.Mediator, rt *exec.Runtime) {
	for _, c := range rt.Dec.Chains {
		rel := c.Scan.Rel.Name
		q, ok := med.CM.Queue(rt.Label + ":" + rel)
		if !ok {
			panic(fmt.Sprintf("no queue for %s:%s", rt.Label, rel))
		}
		q.SetProducer(resumeOnly{rt.Source(rel)})
	}
}

// eagerPolicy shims the wrappers of every query attached mid-run (the inner
// DSE takes the query up at its next Plan).
type eagerPolicy struct{ core.Policy }

func (p *eagerPolicy) Attach(st *core.State, rt *exec.Runtime) error {
	shimWrappers(st.Mediator(), rt)
	return nil
}

// TestFusedDeferredMatchesEagerAcrossCancel runs one fused batch — staggered
// arrivals behind an admission cap, shared wrapper streams, resident temp
// pages, the first query timing out — with deferred production and with every
// wrapper forced eager: reports and statistics must be identical. Across the
// timeouts tried, the cancel has to strike at least once while the doomed
// query's queues still hold unsettled credits, the case where a lost or
// late settle would show.
func TestFusedDeferredMatchesEagerAcrossCancel(t *testing.T) {
	cfg := exec.DefaultConfig()
	cfg.SharedStreams = true
	run := func(strategy string, timeout time.Duration) ([]Report, Stats, int) {
		queries := testQueries(t, 4, 300*time.Microsecond)
		queries[0].Timeout = timeout
		s, err := New(Config{Exec: cfg, MaxActive: 3, Strategy: strategy})
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range queries {
			if err := s.Submit(q); err != nil {
				t.Fatal(err)
			}
		}
		// After every scheduling round: the clock and the credits q0's queues
		// have not settled yet.
		type roundEnd struct {
			now     time.Duration
			pending int
		}
		var rounds []roundEnd
		s.probe = func(med *exec.Mediator) {
			r := roundEnd{now: med.Now()}
			for _, q := range med.CM.Queues() {
				if strings.HasPrefix(q.Name(), "q0:") {
					r.pending += q.Deferred()
				}
			}
			rounds = append(rounds, r)
		}
		reports, stats, err := s.Run()
		if err != nil {
			t.Fatalf("%s timeout %v: %v", strategy, timeout, err)
		}
		// The server cancels q0 at the first round boundary past its
		// deadline: that round's end is the state the cancel finds.
		for _, r := range rounds {
			if r.now-reports[0].AdmittedAt >= timeout {
				return reports, stats, r.pending
			}
		}
		return reports, stats, 0
	}
	struck := 0
	for _, timeout := range []time.Duration{5 * time.Millisecond, 20 * time.Millisecond, 60 * time.Millisecond, 150 * time.Millisecond} {
		want, wantStats, eagerPending := run(eagerDSE, timeout)
		got, gotStats, pending := run("", timeout)
		if eagerPending > 0 {
			t.Fatalf("timeout %v: the eager run left %d credits pending", timeout, eagerPending)
		}
		if !got[0].Cancelled {
			t.Fatalf("timeout %v did not cancel q0 (completed at %v)", timeout, got[0].CompletedAt)
		}
		if pending > 0 {
			struck++
		}
		if gotStats != wantStats {
			t.Errorf("timeout %v: stats differ\ndeferred: %+v\neager:    %+v", timeout, gotStats, wantStats)
		}
		for i := range want {
			if !reportEqual(got[i], want[i]) {
				t.Errorf("timeout %v: report %d differs\ndeferred: %+v\neager:    %+v", timeout, i, got[i], want[i])
			}
		}
	}
	if struck == 0 {
		t.Error("no cancel struck with credits pending; the timeouts need retuning")
	}
}
