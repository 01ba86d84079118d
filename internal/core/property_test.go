package core

import (
	"testing"
	"time"

	"dqs/internal/exec"
	"dqs/internal/reftest"
	"dqs/internal/sim"
	"dqs/internal/workload"
)

// TestDSEMatchesReferenceOnRandomWorkloads is the central correctness
// property of the dynamic engine: across randomly generated plans, datasets
// and per-wrapper delivery speeds, DSE must produce exactly the reference
// join result — no matter how chains were degraded, split or interleaved.
func TestDSEMatchesReferenceOnRandomWorkloads(t *testing.T) {
	rng := sim.NewRNG(2024)
	for seed := int64(1); seed <= 8; seed++ {
		w, err := workload.Random(sim.NewRNG(seed), workload.DefaultRandomSpec())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		want := reftest.Count(w.Root, w.Dataset)
		del := make(map[string]exec.Delivery)
		for _, name := range w.Catalog.Names() {
			// Random speeds across three orders of magnitude.
			del[name] = exec.Delivery{
				MeanWait: time.Duration(1+rng.Intn(1000)) * time.Microsecond,
			}
		}
		cfg := testConfig()
		cfg.Seed = seed
		// Exercise degradation aggressively half the time.
		if seed%2 == 0 {
			cfg.BMT = 0
		}
		rt, err := exec.NewRuntime(cfg, w.Root, w.Dataset, del)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		res, err := runOn(rt, "DSE")
		if err != nil {
			t.Fatalf("seed %d: DSE failed: %v", seed, err)
		}
		if res.OutputRows != want {
			t.Errorf("seed %d: DSE produced %d rows, reference says %d", seed, res.OutputRows, want)
		}
	}
}

// TestDSEMatchesReferenceUnderMemoryPressure forces the §4.2 repair path on
// random workloads and checks correctness is preserved.
func TestDSEMatchesReferenceUnderMemoryPressure(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		w, err := workload.Random(sim.NewRNG(seed+100), workload.DefaultRandomSpec())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		want := reftest.Count(w.Root, w.Dataset)
		// Find a grant under pressure: start generous, halve until failure,
		// verifying every successful run.
		grant := int64(4 << 20)
		ranWithRepair := false
		for grant > 8<<10 {
			cfg := testConfig()
			cfg.Seed = seed
			cfg.MemoryBytes = grant
			rt, err := exec.NewRuntime(cfg, w.Root, w.Dataset, nil)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			res, err := runOn(rt, "DSE")
			if err != nil {
				break // infeasible: acceptable floor
			}
			if res.OutputRows != want {
				t.Errorf("seed %d grant %d: %d rows, want %d", seed, grant, res.OutputRows, want)
			}
			if res.PeakMemBytes > grant {
				t.Errorf("seed %d grant %d: peak %d exceeds grant", seed, grant, res.PeakMemBytes)
			}
			if res.MemRepairs > 0 {
				ranWithRepair = true
			}
			grant /= 2
		}
		_ = ranWithRepair
	}
}

// TestDSELWBHolds checks no DSE run beats the analytic lower bound.
func TestDSELWBHolds(t *testing.T) {
	w := smallFig5(t)
	for _, wait := range []time.Duration{10 * time.Microsecond, 50 * time.Microsecond, 500 * time.Microsecond} {
		del := uniform(w, wait)
		rtL := newRT(t, w, testConfig(), del)
		lwb := exec.LWB(rtL)
		res, err := runOn(newRT(t, w, testConfig(), del), "DSE")
		if err != nil {
			t.Fatal(err)
		}
		if res.ResponseTime < lwb {
			t.Errorf("w=%v: DSE (%v) beats LWB (%v)", wait, res.ResponseTime, lwb)
		}
	}
}

// TestStarWorkloadAllStrategiesAgree runs the star workload under every
// strategy and cross-checks against the reference evaluator.
func TestStarWorkloadAllStrategiesAgree(t *testing.T) {
	w, err := workload.Star(3, workload.SmallStarSpec())
	if err != nil {
		t.Fatal(err)
	}
	want := reftest.Count(w.Root, w.Dataset)
	if want == 0 {
		t.Fatal("star reference result empty")
	}
	del := make(map[string]exec.Delivery)
	for _, name := range w.Catalog.Names() {
		del[name] = exec.Delivery{MeanWait: 30 * time.Microsecond}
	}
	for _, name := range []string{"SEQ", "MA", "SCR", "DSE"} {
		rt, err := exec.NewRuntime(testConfig(), w.Root, w.Dataset, del)
		if err != nil {
			t.Fatal(err)
		}
		res, err := runOn(rt, name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.OutputRows != want {
			t.Errorf("%s produced %d rows, reference says %d", name, res.OutputRows, want)
		}
	}
}
