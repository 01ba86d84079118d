package core

import (
	"runtime"
	"testing"
	"time"

	"dqs/internal/exec"
	"dqs/internal/relation"
	"dqs/internal/sim"
	"dqs/internal/source"
)

// settleGoroutines waits for the goroutine count to come back down to want
// and returns the count it settled at. EndPhase returns once every helper
// has run its last instruction, but the runtime retires the goroutine a
// moment later, so an immediate read can still count it.
func settleGoroutines(want int) int {
	deadline := time.Now().Add(2 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= want || time.Now().After(deadline) {
			return n
		}
		runtime.Gosched()
	}
}

// phaseWatch is a result sink that notes the highest goroutine count seen
// while tuples were being emitted — inside an execution phase, where the
// pool's helpers are alive. canary hangs off it so a test can tell when the
// run's state has become garbage.
type phaseWatch struct {
	peak   int
	canary *[64]byte
}

func (p *phaseWatch) Emit(time.Duration, relation.Tuple) {
	if n := runtime.NumGoroutine(); n > p.peak {
		p.peak = n
	}
}

// stepAll steps the engine to completion (or error), requiring the goroutine
// count to be back at base (or below: a goroutine of an earlier subtest may
// have been retiring when base was read) after every Step, and returns the
// Step error.
// between runs after each successful Step, for mid-run interventions.
func stepAll(t *testing.T, name string, e *Engine, base int, between func(step int)) error {
	t.Helper()
	for step := 0; ; step++ {
		ok, err := e.Step()
		if n := settleGoroutines(base); n > base {
			t.Fatalf("%s: %d goroutines after Step %d (err=%v), %d before the run", name, n, step, err, base)
		}
		if err != nil || !ok {
			return err
		}
		if between != nil {
			between(step)
		}
	}
}

// TestWorkersLiveOnlyInsideAPhase runs Workers=8 engines into every kind of
// phase ending — fragment and plan completion, rate change, overflow with
// memory repair, timeout, scrambling's reschedule, the round-robin sweep, a
// mid-run cancel and an error out of the phase loop — and requires the
// helper goroutines to be gone whenever Step has returned, having been there
// while the phase ran.
func TestWorkersLiveOnlyInsideAPhase(t *testing.T) {
	w := smallFig5(t)
	fast := uniform(w, 0)
	cfg := func() (exec.Config, *sim.Trace, *phaseWatch) {
		c := testConfig()
		c.Workers = 8
		tr, watch := &sim.Trace{}, &phaseWatch{}
		c.Trace, c.Stream = tr, watch
		return c, tr, watch
	}
	engine := func(rt *exec.Runtime, strategy string) *Engine {
		e, err := NewStrategyEngine(rt.Med, []*exec.Runtime{rt}, strategy)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}

	t.Run("completions", func(t *testing.T) {
		base := runtime.NumGoroutine()
		c, _, watch := cfg()
		if err := stepAll(t, "DSE", engine(newRT(t, w, c, fast), "DSE"), base, nil); err != nil {
			t.Fatal(err)
		}
		if watch.peak <= base {
			t.Errorf("no helper goroutine was ever alive inside a phase (peak %d, base %d): the parallel path did not engage", watch.peak, base)
		}
	})
	t.Run("rate change", func(t *testing.T) {
		base := runtime.NumGoroutine()
		c, tr, _ := cfg()
		del := uniform(w, 20*time.Microsecond)
		card, _ := w.Catalog.Lookup("C")
		del["C"] = exec.Delivery{Phases: []source.Phase{
			{FromRow: 0, W: 10 * time.Microsecond},
			{FromRow: card.Cardinality / 2, W: 400 * time.Microsecond},
		}}
		if err := stepAll(t, "DSE", engine(newRT(t, w, c, del), "DSE"), base, nil); err != nil {
			t.Fatal(err)
		}
		if tr.Count(sim.EvRateChange) == 0 {
			t.Error("no RateChange event ended a phase")
		}
	})
	t.Run("overflow", func(t *testing.T) {
		base := runtime.NumGoroutine()
		c, tr, _ := cfg()
		c.MemoryBytes = 1 << 20
		if err := stepAll(t, "DSE", engine(newRT(t, w, c, uniform(w, 10*time.Microsecond)), "DSE"), base, nil); err != nil {
			t.Fatal(err)
		}
		if tr.Count(sim.EvMemRepair) == 0 {
			t.Error("no overflow ended a phase")
		}
	})
	t.Run("timeout", func(t *testing.T) {
		base := runtime.NumGoroutine()
		c, tr, _ := cfg()
		c.Timeout = 500 * time.Millisecond
		del := make(map[string]exec.Delivery)
		for _, name := range w.Catalog.Names() {
			del[name] = exec.Delivery{InitialDelay: 2 * time.Second}
		}
		if err := stepAll(t, "DSE", engine(newRT(t, w, c, del), "DSE"), base, nil); err != nil {
			t.Fatal(err)
		}
		if tr.Count(sim.EvTimeout) == 0 {
			t.Error("no timeout ended a phase")
		}
	})
	t.Run("reschedule and round robin", func(t *testing.T) {
		base := runtime.NumGoroutine()
		c, _, _ := cfg()
		del := uniform(w, 0)
		del["D"] = exec.Delivery{InitialDelay: 2 * time.Second}
		rt := newRT(t, w, c, del)
		if err := stepAll(t, "SCR", engine(rt, "SCR"), base, nil); err != nil {
			t.Fatal(err)
		}
		if rt.Finish("SCR").Replans == 0 {
			t.Error("the initial delay did not trigger scrambling's reschedule")
		}
		if err := stepAll(t, "MA", engine(newRT(t, w, c, fast), "MA"), base, nil); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("cancel", func(t *testing.T) {
		base := runtime.NumGoroutine()
		c, _, _ := cfg()
		med, rts, _ := multiSetup(t, c, 2, 0)
		e, err := NewStrategyEngine(med, rts, "DSE")
		if err != nil {
			t.Fatal(err)
		}
		err = stepAll(t, "multi", e, base, func(step int) {
			if step == 2 {
				if err := e.CancelQuery(rts[0]); err != nil {
					t.Fatal(err)
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	})
	t.Run("error", func(t *testing.T) {
		base := runtime.NumGoroutine()
		c, _, _ := cfg()
		c.Faults = parsePlan(t, "D:kill@7000")
		if err := stepAll(t, "DSE", engine(newRT(t, w, c, fast), "DSE"), base, nil); err == nil {
			t.Fatal("a dead wrapper with no recovery path did not fail the phase")
		}
	})
}

// TestFinishedRunIsCollectable: once an engine has run to completion and the
// caller drops it, nothing — no parked helper, no task closure kept by the
// pool — may keep the run's state reachable.
func TestFinishedRunIsCollectable(t *testing.T) {
	w := smallFig5(t)
	collected := make(chan struct{})
	func() {
		cfg := testConfig()
		cfg.Workers = 8
		watch := &phaseWatch{canary: new([64]byte)}
		runtime.SetFinalizer(watch.canary, func(*[64]byte) { close(collected) })
		cfg.Stream = watch
		base := runtime.NumGoroutine()
		res, err := runOn(newRT(t, w, cfg, uniform(w, 0)), "DSE")
		if err != nil {
			t.Fatal(err)
		}
		if res.OutputRows == 0 || watch.peak <= base {
			t.Fatalf("run produced %d rows with a goroutine peak of %d over %d: the parallel path did not engage", res.OutputRows, watch.peak, base)
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
