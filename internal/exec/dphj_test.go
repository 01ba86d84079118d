package exec_test

import (
	"errors"
	"testing"
	"time"

	"dqs/internal/core"
	"dqs/internal/exec"
	"dqs/internal/reftest"
	"dqs/internal/sim"
	"dqs/internal/workload"
)

// runOn executes one single-query runtime under the named strategy through
// the engine every entry point uses; the join network has no driver of its
// own.
func runOn(t *testing.T, cfg exec.Config, w *workload.Workload, del map[string]exec.Delivery, name string) (exec.Result, error) {
	t.Helper()
	rt, err := exec.NewRuntime(cfg, w.Root, w.Dataset, del)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.RunStrategy(rt.Med, []*exec.Runtime{rt}, name)
	if err != nil {
		return exec.Result{}, err
	}
	return res[0], nil
}

func TestDPHJMatchesReference(t *testing.T) {
	w := exec.SmallFig5(t)
	res, err := runOn(t, exec.TestingConfig(), w, exec.Uniform(w, 10*time.Microsecond), "DPHJ")
	if err != nil {
		t.Fatal(err)
	}
	if want := reftest.Count(w.Root, w.Dataset); res.OutputRows != want {
		t.Errorf("DPHJ produced %d rows, reference says %d", res.OutputRows, want)
	}
}

func TestDPHJMatchesReferenceOnRandomWorkloads(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		w, err := workload.Random(sim.NewRNG(seed), workload.DefaultRandomSpec())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		cfg := exec.TestingConfig()
		cfg.Seed = seed
		res, err := runOn(t, cfg, w, exec.Uniform(w, 5*time.Microsecond), "DPHJ")
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if want := reftest.Count(w.Root, w.Dataset); res.OutputRows != want {
			t.Errorf("seed %d: DPHJ produced %d rows, want %d", seed, res.OutputRows, want)
		}
	}
}

func TestDPHJDoublesMemoryFootprint(t *testing.T) {
	w := exec.SmallFig5(t)
	del := exec.Uniform(w, 10*time.Microsecond)
	seq, err := runOn(t, exec.TestingConfig(), w, del, "SEQ")
	if err != nil {
		t.Fatal(err)
	}
	dphj, err := runOn(t, exec.TestingConfig(), w, del, "DPHJ")
	if err != nil {
		t.Fatal(err)
	}
	// The symmetric network retains everything (inputs + intermediates) on
	// both sides of its joins: far above the asymmetric plan's peak.
	if dphj.PeakMemBytes < 2*seq.PeakMemBytes {
		t.Errorf("DPHJ peak %d not at least twice SEQ peak %d", dphj.PeakMemBytes, seq.PeakMemBytes)
	}
}

func TestDPHJFailsOnMemoryExhaustion(t *testing.T) {
	w := exec.SmallFig5(t)
	cfg := exec.TestingConfig()
	cfg.MemoryBytes = 1 << 20 // the asymmetric plan fits in ~1.3MB; DPHJ cannot
	if _, err := runOn(t, cfg, w, nil, "DPHJ"); !errors.Is(err, exec.ErrMemoryExceeded) {
		t.Errorf("err = %v, want ErrMemoryExceeded", err)
	}
}

func TestDPHJAbsorbsAnySourceDelay(t *testing.T) {
	// The operator-level adaptation reacts to any wrapper instantly: with
	// one slow wrapper it should perform at least as well as SEQ.
	w := exec.SmallFig5(t)
	for _, slowRel := range []string{"A", "C", "F"} {
		del := exec.Uniform(w, 20*time.Microsecond)
		del[slowRel] = exec.Delivery{MeanWait: 200 * time.Microsecond}
		dphj, err := runOn(t, exec.TestingConfig(), w, del, "DPHJ")
		if err != nil {
			t.Fatal(err)
		}
		seq, err := runOn(t, exec.TestingConfig(), w, del, "SEQ")
		if err != nil {
			t.Fatal(err)
		}
		if dphj.ResponseTime > seq.ResponseTime {
			t.Errorf("slow %s: DPHJ (%v) slower than SEQ (%v)", slowRel, dphj.ResponseTime, seq.ResponseTime)
		}
	}
}

func TestDPHJAppliesScanPredicates(t *testing.T) {
	cat, ds := exec.PredWorkload(t)
	root := exec.BuildPredPlan(t, cat, 50)
	w := &workload.Workload{Catalog: cat, Dataset: ds, Root: root}
	res, err := runOn(t, exec.TestingConfig(), w, nil, "DPHJ")
	if err != nil {
		t.Fatal(err)
	}
	if want := reftest.Count(root, ds); res.OutputRows != want {
		t.Errorf("DPHJ with predicate produced %d rows, want %d", res.OutputRows, want)
	}
}
