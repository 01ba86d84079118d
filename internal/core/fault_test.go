package core

import (
	"strings"
	"testing"
	"time"

	"dqs/internal/exec"
	"dqs/internal/fault"
	"dqs/internal/reftest"
	"dqs/internal/sim"
)

// The built-in strategies, every one of which must survive every recovery
// scenario.
var faultStrategies = []string{"SEQ", "MA", "SCR", "DSE", "DPHJ"}

func parsePlan(t *testing.T, spec string) *fault.Plan {
	t.Helper()
	p, err := fault.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestDisconnectReconnectCompletes: a mid-stream disconnect with reconnect
// must complete under every strategy with the full result, surfacing the
// down/up transitions as trace events.
func TestDisconnectReconnectCompletes(t *testing.T) {
	w := smallFig5(t)
	del := uniform(w, 20*time.Microsecond)
	for _, name := range faultStrategies {
		base := runStrategyOn(t, newRT(t, w, testConfig(), del), name)
		cfg := testConfig()
		cfg.Faults = parsePlan(t, "D:drop@2000+80ms;C:drop@5000+40ms,restart")
		tr := &sim.Trace{}
		cfg.Trace = tr
		res, err := runOn(newRT(t, w, cfg, del), name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.OutputRows != base.OutputRows {
			t.Errorf("%s: %d rows with disconnects, %d without", name, res.OutputRows, base.OutputRows)
		}
		if res.ResponseTime < base.ResponseTime {
			t.Errorf("%s: response %v got faster under disconnects than %v", name, res.ResponseTime, base.ResponseTime)
		}
		if tr.Count(sim.EvSourceDown) == 0 || tr.Count(sim.EvSourceUp) == 0 {
			t.Errorf("%s: disconnect left no down/up trace (down=%d up=%d)",
				name, tr.Count(sim.EvSourceDown), tr.Count(sim.EvSourceUp))
		}
		if len(res.DegradedFragments) != 0 {
			t.Errorf("%s: transient disconnect degraded %v", name, res.DegradedFragments)
		}
	}
}

// TestDeathFailoverCompletes: permanent death with a declared replica must
// complete under every strategy with the full result, recovering through
// retry probes and a failover (both visible in the trace).
func TestDeathFailoverCompletes(t *testing.T) {
	w := smallFig5(t)
	del := uniform(w, 20*time.Microsecond)
	for _, name := range faultStrategies {
		base := runStrategyOn(t, newRT(t, w, testConfig(), del), name)
		cfg := testConfig()
		cfg.Faults = parsePlan(t, "D:kill@7000;D:replica,connect=10ms")
		tr := &sim.Trace{}
		cfg.Trace = tr
		res, err := runOn(newRT(t, w, cfg, del), name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.OutputRows != base.OutputRows {
			t.Errorf("%s: %d rows after failover, %d without faults", name, res.OutputRows, base.OutputRows)
		}
		if tr.Count(sim.EvRetry) == 0 {
			t.Errorf("%s: failover happened without retry probes", name)
		}
		if got := tr.Count(sim.EvFailover); got != 1 {
			t.Errorf("%s: %d failover events, want 1", name, got)
		}
		if len(res.DegradedFragments) != 0 {
			t.Errorf("%s: failover degraded %v", name, res.DegradedFragments)
		}
	}
}

// TestColdReplicaRestartIsSlower: a cold (restart) replica re-pays the dead
// prefix, so it must finish no earlier than a warm (replay) replica of the
// same scenario.
func TestColdReplicaRestartIsSlower(t *testing.T) {
	w := smallFig5(t)
	del := uniform(w, 20*time.Microsecond)
	run := func(spec string) exec.Result {
		cfg := testConfig()
		cfg.Faults = parsePlan(t, spec)
		res, err := runOn(newRT(t, w, cfg, del), "DSE")
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	warm := run("D:kill@7000;D:replica,connect=10ms")
	cold := run("D:kill@7000;D:replica,connect=10ms,restart")
	if cold.ResponseTime < warm.ResponseTime {
		t.Errorf("cold replica finished at %v, before warm replica's %v", cold.ResponseTime, warm.ResponseTime)
	}
}

// TestPartialResultsReportDegradedFragments: death with no replica in
// partial-result mode completes the QEP minus the dead subtree and reports
// exactly the fragments that were abandoned.
func TestPartialResultsReportDegradedFragments(t *testing.T) {
	w := smallFig5(t)
	del := uniform(w, 20*time.Microsecond)
	for _, name := range faultStrategies {
		cfg := testConfig()
		cfg.Faults = parsePlan(t, "D:kill@7000")
		cfg.PartialResults = true
		tr := &sim.Trace{}
		cfg.Trace = tr
		res, err := runOn(newRT(t, w, cfg, del), name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(res.DegradedFragments) == 0 {
			t.Fatalf("%s: partial-result run reported no degraded fragments", name)
		}
		for _, label := range res.DegradedFragments {
			if !strings.Contains(label, "p_D") {
				t.Errorf("%s: degraded fragment %q is not part of the dead chain p_D", name, label)
			}
		}
		if res.OutputRows == 0 {
			t.Errorf("%s: partial-result run produced nothing", name)
		}
		base := runStrategyOn(t, newRT(t, w, testConfig(), del), name)
		if res.OutputRows >= base.OutputRows {
			t.Errorf("%s: partial run produced %d rows, full run %d — the dead rows went missing nowhere",
				name, res.OutputRows, base.OutputRows)
		}
	}
}

// TestDeadWrapperWithoutRecoveryFails: no replica and no partial-result
// opt-in means a dead wrapper is a hard, descriptive error — never a hang.
func TestDeadWrapperWithoutRecoveryFails(t *testing.T) {
	w := smallFig5(t)
	del := uniform(w, 20*time.Microsecond)
	for _, name := range faultStrategies {
		cfg := testConfig()
		cfg.Faults = parsePlan(t, "D:kill@7000")
		_, err := runOn(newRT(t, w, cfg, del), name)
		if err == nil {
			t.Fatalf("%s: dead wrapper with no recovery path succeeded", name)
		}
		if !strings.Contains(err.Error(), "dead") {
			t.Errorf("%s: error %q does not mention the dead wrapper", name, err)
		}
	}
}

// TestEmptyFaultPlanIsInert: an empty (but non-nil) plan must leave every
// strategy's Result bit-identical to the no-plan run.
func TestEmptyFaultPlanIsInert(t *testing.T) {
	w := smallFig5(t)
	del := uniform(w, 20*time.Microsecond)
	for _, name := range faultStrategies {
		base := runStrategyOn(t, newRT(t, w, testConfig(), del), name)
		cfg := testConfig()
		cfg.Faults = &fault.Plan{}
		res := runStrategyOn(t, newRT(t, w, cfg, del), name)
		if !res.Equal(base) {
			t.Errorf("%s: empty fault plan changed the run:\n%v\n%v", name, base, res)
		}
	}
}

// TestFaultScenarioDeterminism: equal plan, seeds and config produce
// bit-identical faulted runs.
func TestFaultScenarioDeterminism(t *testing.T) {
	w := smallFig5(t)
	del := uniform(w, 20*time.Microsecond)
	spec := "C:burst@100+500x300us;D:drop@2000+80ms;A:kill@9000;A:replica,connect=10ms,restart"
	run := func() exec.Result {
		cfg := testConfig()
		cfg.Faults = parsePlan(t, spec)
		res, err := runOn(newRT(t, w, cfg, del), "DSE")
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if !a.Equal(b) {
		t.Errorf("same fault scenario produced different results:\n%v\n%v", a, b)
	}
}

// TestDPHJUnderFaults: the symmetric join network runs on the unified
// executor, so it inherits the mediator's fault layer. A dead wrapper with no
// recovery path is a descriptive error, a replica restores the reference
// result, and partial results complete minus the dead relation's feed.
func TestDPHJUnderFaults(t *testing.T) {
	w := smallFig5(t)
	del := uniform(w, 20*time.Microsecond)
	want := reftest.Count(w.Root, w.Dataset)
	run := func(spec string, partial bool) (exec.Result, error) {
		cfg := testConfig()
		cfg.Faults = parsePlan(t, spec)
		cfg.PartialResults = partial
		return runOn(newRT(t, w, cfg, del), "DPHJ")
	}
	if _, err := run("D:kill@7000", false); err == nil || !strings.Contains(err.Error(), "dead") {
		t.Errorf("kill without recovery: err = %v, want the dead-wrapper error", err)
	}
	res, err := run("D:kill@7000;D:replica,connect=10ms", false)
	if err != nil {
		t.Fatalf("kill with replica: %v", err)
	}
	if res.OutputRows != want || len(res.DegradedFragments) != 0 {
		t.Errorf("kill with replica: %d rows, degraded %v; want the reference %d, none", res.OutputRows, res.DegradedFragments, want)
	}
	res, err = run("D:kill@7000", true)
	if err != nil {
		t.Fatalf("partial results: %v", err)
	}
	if res.OutputRows == 0 || res.OutputRows >= want || len(res.DegradedFragments) != 1 || res.DegradedFragments[0] != "p_D" {
		t.Errorf("partial results: %d rows, degraded %v; want fewer than the reference %d, [p_D]", res.OutputRows, res.DegradedFragments, want)
	}
}
