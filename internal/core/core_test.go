package core

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"dqs/internal/exec"
	"dqs/internal/relation"
	"dqs/internal/sim"
	"dqs/internal/source"
	"dqs/internal/workload"
)

func testConfig() exec.Config {
	cfg := exec.DefaultConfig()
	cfg.Seed = 1
	return cfg
}

func smallFig5(t *testing.T) *workload.Workload {
	t.Helper()
	w, err := workload.Fig5Small(1)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func uniform(w *workload.Workload, wait time.Duration) map[string]exec.Delivery {
	out := make(map[string]exec.Delivery)
	for _, name := range w.Catalog.Names() {
		out[name] = exec.Delivery{MeanWait: wait}
	}
	return out
}

func newRT(t *testing.T, w *workload.Workload, cfg exec.Config, del map[string]exec.Delivery) *exec.Runtime {
	t.Helper()
	rt, err := exec.NewRuntime(cfg, w.Root, w.Dataset, del)
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

// runOn executes one single-query runtime under the named strategy.
func runOn(rt *exec.Runtime, name string) (exec.Result, error) {
	results, err := RunStrategy(rt.Med, []*exec.Runtime{rt}, name)
	if err != nil {
		return exec.Result{}, err
	}
	return results[0], nil
}

// dseEngine builds a DSE engine over one single-query runtime, its chains
// registered as the first planning point would register them.
func dseEngine(t testing.TB, rt *exec.Runtime) *Engine {
	t.Helper()
	e, err := NewStrategyEngine(rt.Med, []*exec.Runtime{rt}, "DSE")
	if err != nil {
		t.Fatal(err)
	}
	e.pol.(*dsePolicy).addRuntimes(e.st)
	return e
}

func TestCriticalDegreeSign(t *testing.T) {
	w := smallFig5(t)
	rt := newRT(t, w, testConfig(), nil)
	c, _ := rt.Dec.ChainOf("A")
	// Huge waiting time: clearly critical.
	if got := CriticalDegree(rt, c, c.Scan.Rel.Cardinality, time.Millisecond); got <= 0 {
		t.Errorf("critical degree with 1ms wait = %v, want positive", got)
	}
	// Zero waiting time: processing dominates, not critical.
	if got := CriticalDegree(rt, c, c.Scan.Rel.Cardinality, 0); got >= 0 {
		t.Errorf("critical degree with 0 wait = %v, want negative", got)
	}
	// Scales linearly with remaining tuples.
	a := CriticalDegree(rt, c, 1000, time.Millisecond)
	b := CriticalDegree(rt, c, 2000, time.Millisecond)
	if b != 2*a {
		t.Errorf("critical degree not linear in n: %v vs %v", a, b)
	}
}

func TestBMIFormula(t *testing.T) {
	w := smallFig5(t)
	cfg := testConfig()
	cfg.InitialWaitEstimate = 20 * time.Microsecond
	rt := newRT(t, w, cfg, nil)
	c, _ := rt.Dec.ChainOf("A")
	io := rt.TupleIOTime().Seconds()
	want := (20e-6) / (2 * io)
	if got := BMI(rt, c); got < want*0.99 || got > want*1.01 {
		t.Errorf("BMI = %v, want ≈%v", got, want)
	}
	// Table 1 numbers: IO_p = 1.365ms/204 ≈ 6.69µs, so bmi(20µs) ≈ 1.49 —
	// above the paper's bmt of 1, explaining degradation at w_min.
	if got := BMI(rt, c); got < 1.3 || got > 1.7 {
		t.Errorf("BMI at w_min = %v, want ≈1.5", got)
	}
}

func TestDSEMatchesSEQOutputAndDoesNotLose(t *testing.T) {
	w := smallFig5(t)
	for _, wait := range []time.Duration{20 * time.Microsecond, 100 * time.Microsecond} {
		del := uniform(w, 20*time.Microsecond)
		del["A"] = exec.Delivery{MeanWait: wait}
		seqRes, err := runOn(newRT(t, w, testConfig(), del), "SEQ")
		if err != nil {
			t.Fatal(err)
		}
		dseRes, err := runOn(newRT(t, w, testConfig(), del), "DSE")
		if err != nil {
			t.Fatal(err)
		}
		if dseRes.OutputRows != seqRes.OutputRows {
			t.Errorf("w=%v: DSE rows %d != SEQ rows %d", wait, dseRes.OutputRows, seqRes.OutputRows)
		}
		if dseRes.ResponseTime > seqRes.ResponseTime {
			t.Errorf("w=%v: DSE (%v) slower than SEQ (%v)", wait, dseRes.ResponseTime, seqRes.ResponseTime)
		}
	}
}

func TestDSEDeterminism(t *testing.T) {
	w := smallFig5(t)
	del := uniform(w, 20*time.Microsecond)
	del["A"] = exec.Delivery{MeanWait: 200 * time.Microsecond}
	a, err := runOn(newRT(t, w, testConfig(), del), "DSE")
	if err != nil {
		t.Fatal(err)
	}
	b, err := runOn(newRT(t, w, testConfig(), del), "DSE")
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b) {
		t.Errorf("same seed produced different DSE results:\n%v\n%v", a, b)
	}
}

func TestBMTGatesDegradation(t *testing.T) {
	w := smallFig5(t)
	del := uniform(w, 20*time.Microsecond)
	del["A"] = exec.Delivery{MeanWait: 200 * time.Microsecond}

	cfgOff := testConfig()
	cfgOff.BMT = 1e9 // degradation disabled
	resOff, err := runOn(newRT(t, w, cfgOff, del), "DSE")
	if err != nil {
		t.Fatal(err)
	}
	if resOff.Degradations != 0 || resOff.MaterializedTuples != 0 {
		t.Errorf("bmt=inf still degraded: %d degradations, %d materialized",
			resOff.Degradations, resOff.MaterializedTuples)
	}

	cfgOn := testConfig()
	cfgOn.BMT = 0
	resOn, err := runOn(newRT(t, w, cfgOn, del), "DSE")
	if err != nil {
		t.Fatal(err)
	}
	if resOn.Degradations == 0 || resOn.MaterializedTuples == 0 {
		t.Errorf("bmt=0 with a slow wrapper never degraded")
	}
	if resOn.OutputRows != resOff.OutputRows {
		t.Errorf("degradation changed the result: %d vs %d", resOn.OutputRows, resOff.OutputRows)
	}
}

func TestDSEWithoutDegradationStillInterleaves(t *testing.T) {
	// Even with degradation off, DSE must interleave C-schedulable chains.
	// Slowing D (an independent leaf build that the iterator model consumes
	// first, inline) lets DSE hide D's retrieval behind the consumption of
	// E, A and B, which SEQ cannot: SEQ sits on the slow scan while the
	// other wrappers stall against their full windows.
	w := smallFig5(t)
	del := uniform(w, 20*time.Microsecond)
	del["D"] = exec.Delivery{MeanWait: 200 * time.Microsecond}
	cfg := testConfig()
	cfg.BMT = 1e9
	dse, err := runOn(newRT(t, w, cfg, del), "DSE")
	if err != nil {
		t.Fatal(err)
	}
	if dse.Degradations != 0 {
		t.Fatalf("degradation fired despite bmt=inf")
	}
	seq, err := runOn(newRT(t, w, cfg, del), "SEQ")
	if err != nil {
		t.Fatal(err)
	}
	if dse.ResponseTime >= seq.ResponseTime {
		t.Errorf("DSE (%v) did not beat SEQ (%v) despite overlap opportunity", dse.ResponseTime, seq.ResponseTime)
	}
}

func TestDSEMemoryRepairAndInfeasibility(t *testing.T) {
	w := smallFig5(t)
	del := uniform(w, 10*time.Microsecond)

	cfg := testConfig()
	cfg.MemoryBytes = 1 << 20
	res, err := runOn(newRT(t, w, cfg, del), "DSE")
	if err != nil {
		t.Fatalf("DSE at 1MB failed: %v", err)
	}
	if res.MemRepairs == 0 {
		t.Errorf("DSE at 1MB did no memory repairs")
	}
	if res.PeakMemBytes > cfg.MemoryBytes {
		t.Errorf("peak memory %d exceeded grant %d", res.PeakMemBytes, cfg.MemoryBytes)
	}
	full, err := runOn(newRT(t, w, testConfig(), del), "DSE")
	if err != nil {
		t.Fatal(err)
	}
	if res.OutputRows != full.OutputRows {
		t.Errorf("memory-repaired run produced %d rows, want %d", res.OutputRows, full.OutputRows)
	}

	tiny := testConfig()
	tiny.MemoryBytes = 300 << 10
	if _, err := runOn(newRT(t, w, tiny, del), "DSE"); !errors.Is(err, ErrInsufficientMemory) {
		t.Errorf("DSE at 300KB: err = %v, want ErrInsufficientMemory", err)
	}
}

func TestDSETimeoutEvent(t *testing.T) {
	w := smallFig5(t)
	del := make(map[string]exec.Delivery)
	for _, name := range w.Catalog.Names() {
		del[name] = exec.Delivery{MeanWait: 10 * time.Microsecond, InitialDelay: 12 * time.Second}
	}
	res, err := runOn(newRT(t, w, testConfig(), del), "DSE")
	if err != nil {
		t.Fatal(err)
	}
	if res.Timeouts == 0 {
		t.Errorf("universal 12s initial delay with the %v DQP timeout produced no TimeOut events", dqpTimeout)
	}
	if res.ResponseTime < 12*time.Second {
		t.Errorf("response %v impossibly fast", res.ResponseTime)
	}
}

func TestDSERateChangeTriggersReplanning(t *testing.T) {
	w := smallFig5(t)
	tr := &sim.Trace{}
	cfg := testConfig()
	cfg.Trace = tr
	del := uniform(w, 20*time.Microsecond)
	card, _ := w.Catalog.Lookup("C")
	del["C"] = exec.Delivery{Phases: []source.Phase{
		{FromRow: 0, W: 10 * time.Microsecond},
		{FromRow: card.Cardinality / 2, W: 400 * time.Microsecond},
	}}
	if _, err := runOn(newRT(t, w, cfg, del), "DSE"); err != nil {
		t.Fatal(err)
	}
	if tr.Count(sim.EvRateChange) == 0 {
		t.Error("a 40x mid-stream slowdown produced no RateChange events")
	}
}

func TestChainStateSplitAndAdvance(t *testing.T) {
	w := smallFig5(t)
	rt := newRT(t, w, testConfig(), nil)
	e := dseEngine(t, rt)
	var cs *chainState
	for _, s := range e.pol.(*dsePolicy).states {
		if s.chain.Scan.Rel.Name == "F" { // two probe steps
			cs = s
		}
	}
	if cs == nil {
		t.Fatal("no state for F")
	}
	cs.splitActive(1)
	if len(cs.segs) != 2 || cs.segs[0].toStep != 1 || cs.segs[1].fromStep != 1 {
		t.Fatalf("split shape wrong: %+v", cs.segs)
	}
	cs.advance()
	if cs.cur != 1 || cs.active() != cs.segs[1] {
		t.Errorf("advance state wrong: cur=%d", cs.cur)
	}
	cs.advance()
	if cs.active() != nil {
		t.Error("active() on complete chain")
	}
}

func TestSplitActivePanicsOnMisuse(t *testing.T) {
	w := smallFig5(t)
	rt := newRT(t, w, testConfig(), nil)
	e := dseEngine(t, rt)
	cs := e.pol.(*dsePolicy).states[0]
	defer func() {
		if recover() == nil {
			t.Error("out-of-range split did not panic")
		}
	}()
	cs.splitActive(99)
}

func TestDSETraceRecordsSchedulingActivity(t *testing.T) {
	w := smallFig5(t)
	tr := &sim.Trace{}
	cfg := testConfig()
	cfg.Trace = tr
	del := uniform(w, 20*time.Microsecond)
	del["A"] = exec.Delivery{MeanWait: 300 * time.Microsecond}
	if _, err := runOn(newRT(t, w, cfg, del), "DSE"); err != nil {
		t.Fatal(err)
	}
	if tr.Count(sim.EvSchedule) == 0 {
		t.Error("no scheduling events traced")
	}
	if tr.Count(sim.EvDegrade) == 0 {
		t.Error("no degradation traced despite a slow blocked wrapper")
	}
	if tr.Count(sim.EvFragmentEnd) == 0 {
		t.Error("no fragment completions traced")
	}
}

// canarySink is a result sink whose canary lets a test tell when the run it
// was wired into has become garbage.
type canarySink struct{ canary *[64]byte }

func (canarySink) Emit(time.Duration, relation.Tuple) {}

// TestFinishedRunIsCollectable: once an engine has run to completion and the
// caller drops it, nothing — no pooled scratch, no package-level state — may
// keep the run's state reachable.
func TestFinishedRunIsCollectable(t *testing.T) {
	w := smallFig5(t)
	collected := make(chan struct{})
	func() {
		cfg := testConfig()
		sink := canarySink{canary: new([64]byte)}
		runtime.SetFinalizer(sink.canary, func(*[64]byte) { close(collected) })
		cfg.Stream = sink
		res, err := runOn(newRT(t, w, cfg, uniform(w, 0)), "DSE")
		if err != nil {
			t.Fatal(err)
		}
		if res.OutputRows == 0 {
			t.Fatal("run produced no rows")
		}
	}()
	for i := 0; i < 20; i++ {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(50 * time.Millisecond):
		}
	}
	t.Error("the finished run's state is still reachable after it was dropped")
}
