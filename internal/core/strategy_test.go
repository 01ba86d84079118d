package core

import (
	"errors"
	"testing"
	"time"

	"dqs/internal/exec"
	"dqs/internal/reftest"
	"dqs/internal/sim"
	"dqs/internal/workload"
)

// Strategy-level behaviour tests, exercising every strategy through the
// policy registry — the same dispatch path dqs.Run and the experiment
// harness use. The byte-level pin against the pre-refactor engines lives
// in the experiment package goldens; these tests check the semantic
// properties each strategy must keep.

func runStrategyOn(t *testing.T, rt *exec.Runtime, name string) exec.Result {
	t.Helper()
	res, err := runOn(rt, name)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return res
}

func TestSEQMatchesReferenceEvaluator(t *testing.T) {
	w := smallFig5(t)
	res := runStrategyOn(t, newRT(t, w, testConfig(), nil), "SEQ")
	want := reftest.Count(w.Root, w.Dataset)
	if res.OutputRows != want {
		t.Errorf("SEQ produced %d rows, reference says %d", res.OutputRows, want)
	}
	if res.OutputRows == 0 {
		t.Error("empty result")
	}
}

func TestAllStrategiesMatchReferenceOnRandomWorkloads(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		w, err := workload.Random(sim.NewRNG(seed), workload.DefaultRandomSpec())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		want := reftest.Count(w.Root, w.Dataset)
		for _, name := range []string{"SEQ", "MA", "SCR"} {
			cfg := testConfig()
			cfg.Seed = seed
			rt := newRT(t, w, cfg, uniform(w, 10*time.Microsecond))
			res, err := runOn(rt, name)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, name, err)
			}
			if res.OutputRows != want {
				t.Errorf("seed %d: %s produced %d rows, reference says %d", seed, name, res.OutputRows, want)
			}
		}
	}
}

func TestSEQDeterminism(t *testing.T) {
	w := smallFig5(t)
	del := uniform(w, 20*time.Microsecond)
	var first exec.Result
	for i := 0; i < 2; i++ {
		res := runStrategyOn(t, newRT(t, w, testConfig(), del), "SEQ")
		if i == 0 {
			first = res
		} else if !res.Equal(first) {
			t.Errorf("same seed produced different results:\n%v\n%v", first, res)
		}
	}
}

func TestSEQResponseGrowsWithSlowdown(t *testing.T) {
	w := smallFig5(t)
	var prev time.Duration
	for i, wait := range []time.Duration{20 * time.Microsecond, 60 * time.Microsecond, 120 * time.Microsecond} {
		del := uniform(w, 20*time.Microsecond)
		del["A"] = exec.Delivery{MeanWait: wait}
		res := runStrategyOn(t, newRT(t, w, testConfig(), del), "SEQ")
		if i > 0 && res.ResponseTime <= prev {
			t.Errorf("slowdown %v did not increase SEQ response (%v <= %v)", wait, res.ResponseTime, prev)
		}
		prev = res.ResponseTime
	}
}

func TestLWBNeverExceedsAnyStrategy(t *testing.T) {
	w := smallFig5(t)
	for _, wait := range []time.Duration{0, 20 * time.Microsecond, 100 * time.Microsecond} {
		del := uniform(w, wait)
		lwb := exec.LWB(newRT(t, w, testConfig(), del))
		for _, name := range []string{"SEQ", "MA"} {
			res := runStrategyOn(t, newRT(t, w, testConfig(), del), name)
			if res.ResponseTime < lwb {
				t.Errorf("w=%v: %s (%v) beats LWB (%v)", wait, name, res.ResponseTime, lwb)
			}
		}
	}
}

func TestMAMaterializesEverything(t *testing.T) {
	w := smallFig5(t)
	res := runStrategyOn(t, newRT(t, w, testConfig(), uniform(w, 10*time.Microsecond)), "MA")
	var total int64
	for _, tab := range w.Dataset {
		total += int64(tab.Len())
	}
	if res.MaterializedTuples != total {
		t.Errorf("MA materialized %d tuples, want all %d", res.MaterializedTuples, total)
	}
	if res.Disk.Writes == 0 || res.Disk.Reads == 0 {
		t.Errorf("MA did no I/O: %+v", res.Disk)
	}
}

func TestSEQFailsOnTinyMemory(t *testing.T) {
	w := smallFig5(t)
	cfg := testConfig()
	cfg.MemoryBytes = 64 << 10
	if _, err := runOn(newRT(t, w, cfg, nil), "SEQ"); !errors.Is(err, exec.ErrMemoryExceeded) {
		t.Errorf("SEQ under tiny grant: err = %v, want ErrMemoryExceeded", err)
	}
}

// TestResultStrategyNamesComeFromPolicy checks every built-in strategy
// stamps its policy name into the Result.
func TestResultStrategyNamesComeFromPolicy(t *testing.T) {
	w := smallFig5(t)
	del := uniform(w, 20*time.Microsecond)
	for _, name := range []string{"SEQ", "MA", "SCR", "DSE", "DPHJ"} {
		res := runStrategyOn(t, newRT(t, w, testConfig(), del), name)
		if res.Strategy != name {
			t.Errorf("Result.Strategy = %q, want %q", res.Strategy, name)
		}
	}
}
