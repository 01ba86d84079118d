package experiment

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"dqs/internal/exec"
	"dqs/internal/workload"
)

func TestWorkersDefaultsAndOverride(t *testing.T) {
	var o Options
	if got := o.Workers(); got < 1 {
		t.Errorf("default workers = %d, want >= 1", got)
	}
	o.Parallel = 7
	if got := o.Workers(); got != 7 {
		t.Errorf("workers = %d, want 7", got)
	}
}

func TestForEachRunsEveryJob(t *testing.T) {
	for _, workers := range []int{1, 4, 32} {
		o := Options{Parallel: workers}
		n := 100
		hit := make([]bool, n)
		if err := o.forEach(n, func(i int) error {
			hit[i] = true
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i, h := range hit {
			if !h {
				t.Fatalf("workers=%d: job %d not run", workers, i)
			}
		}
	}
}

func TestForEachReturnsLowestIndexError(t *testing.T) {
	o := Options{Parallel: 8}
	err := o.forEach(64, func(i int) error {
		if i == 17 || i == 3 || i == 60 {
			return fmt.Errorf("job %d failed", i)
		}
		return nil
	})
	if err == nil || err.Error() != "job 3 failed" {
		t.Errorf("err = %v, want the lowest-index failure (job 3)", err)
	}
}

// TestWorkloadCacheSingleflight hammers the cache from many goroutines per
// key: every caller must get the same instance and each key must be
// generated exactly once. Run with -race this is the regression test for
// the unsynchronized map the cache used to be.
func TestWorkloadCacheSingleflight(t *testing.T) {
	o := Options{Small: true}
	seeds := []int64{9001, 9002, 9003, 9004}
	before := workloadBuilds.Load()
	const goroutines = 16
	got := make([][]*workload.Workload, len(seeds))
	for i := range got {
		got[i] = make([]*workload.Workload, goroutines)
	}
	var wg sync.WaitGroup
	for si := range seeds {
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(si, g int) {
				defer wg.Done()
				w, err := o.loadWorkload(seeds[si])
				if err != nil {
					t.Error(err)
					return
				}
				got[si][g] = w
			}(si, g)
		}
	}
	wg.Wait()
	for si := range seeds {
		for g := 1; g < goroutines; g++ {
			if got[si][g] != got[si][0] {
				t.Errorf("seed %d: goroutine %d got a different instance", seeds[si], g)
			}
		}
	}
	if builds := workloadBuilds.Load() - before; builds != int64(len(seeds)) {
		t.Errorf("%d builds for %d fresh seeds, want exactly one each", builds, len(seeds))
	}
}

// TestRunCellsDeterministicAcrossWorkerCounts runs the same cell grid
// sequentially and on a saturated pool: the per-cell simulator results
// (virtual times, counters) must be identical, and order preserved.
func TestRunCellsDeterministicAcrossWorkerCounts(t *testing.T) {
	cfg := exec.DefaultConfig()
	mk := func(w *workload.Workload) map[string]exec.Delivery {
		d := uniformDeliveries(w, cfg.InitialWaitEstimate)
		d["A"] = exec.Delivery{MeanWait: 5 * cfg.InitialWaitEstimate}
		return d
	}
	var cells []cell
	for _, strat := range []string{"SEQ", "MA", "DSE"} {
		for _, seed := range []int64{1, 2} {
			cells = append(cells, cell{Seed: seed, Config: cfg, Strategy: strat, Deliveries: mk})
		}
	}
	seq := Options{Small: true, Parallel: 1}.runCells(cells)
	par := Options{Small: true, Parallel: 8}.runCells(cells)
	if len(seq) != len(cells) || len(par) != len(cells) {
		t.Fatalf("result lengths %d/%d, want %d", len(seq), len(par), len(cells))
	}
	for i := range seq {
		if seq[i].Err != nil || par[i].Err != nil {
			t.Fatalf("cell %d errored: %v / %v", i, seq[i].Err, par[i].Err)
		}
		if !reflect.DeepEqual(seq[i].Result, par[i].Result) {
			t.Errorf("cell %d (%s seed %d): sequential and parallel results differ:\n%+v\n%+v",
				i, cells[i].Strategy, cells[i].Seed, seq[i].Result, par[i].Result)
		}
	}
}

// TestParallelFigureByteIdentical is the golden check of the determinism
// guarantee: a figure regenerated on a saturated worker pool renders —
// Print and CSV — byte-identically to the sequential runner's output.
func TestParallelFigureByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run experiment")
	}
	figures := []struct {
		name string
		gen  func(Options) (*Figure, error)
	}{
		{"fig6", Fig6},
		{"ablation-memory", AblationMemory},
	}
	for _, fc := range figures {
		t.Run(fc.name, func(t *testing.T) {
			seqOpt := Options{Seeds: []int64{1, 2}, Small: true, Parallel: 1}
			parOpt := Options{Seeds: []int64{1, 2}, Small: true, Parallel: 8}
			seqFig, err := fc.gen(seqOpt)
			if err != nil {
				t.Fatal(err)
			}
			parFig, err := fc.gen(parOpt)
			if err != nil {
				t.Fatal(err)
			}
			var seqPrint, parPrint strings.Builder
			seqFig.Print(&seqPrint)
			parFig.Print(&parPrint)
			if seqPrint.String() != parPrint.String() {
				t.Errorf("Print output differs:\n--- sequential ---\n%s--- parallel ---\n%s",
					seqPrint.String(), parPrint.String())
			}
			if seqCSV, parCSV := seqFig.CSV(), parFig.CSV(); seqCSV != parCSV {
				t.Errorf("CSV output differs:\n--- sequential ---\n%s--- parallel ---\n%s", seqCSV, parCSV)
			}
		})
	}
}

func TestRunStatsObserves(t *testing.T) {
	stats := &RunStats{}
	cfg := exec.DefaultConfig()
	o := Options{Small: true, Parallel: 4, Stats: stats}
	mk := func(w *workload.Workload) map[string]exec.Delivery {
		return uniformDeliveries(w, cfg.InitialWaitEstimate)
	}
	cells := []cell{
		{Seed: 1, Config: cfg, Strategy: "SEQ", Deliveries: mk},
		{Seed: 1, Config: cfg, Strategy: "DSE", Deliveries: mk},
		{Seed: 1, Config: cfg, Strategy: "BOGUS", Deliveries: mk},
	}
	res := o.runCells(cells)
	if res[2].Err == nil {
		t.Error("bogus strategy did not error")
	}
	if got := stats.Cells(); got != 3 {
		t.Errorf("cells = %d, want 3", got)
	}
	if stats.CellWall() <= 0 {
		t.Error("no cell wall-clock recorded")
	}
	sum := stats.Summary()
	for _, want := range []string{"cells=3", "errors=1", "replans="} {
		if !strings.Contains(sum, want) {
			t.Errorf("summary %q missing %q", sum, want)
		}
	}
	// A nil stats receiver discards observations without panicking.
	var nilStats *RunStats
	nilStats.observe(cellResult{})
}

func TestSweepToleratedErrors(t *testing.T) {
	o := Options{Seeds: []int64{1}, Small: true, Parallel: 2}
	sw := o.newSweep("test")
	sentinel := errors.New("expected failure")
	sw.tolerate = func(err error) bool { return errors.Is(err, sentinel) }
	cfg := exec.DefaultConfig()
	mk := func(w *workload.Workload) map[string]exec.Delivery {
		return uniformDeliveries(w, cfg.InitialWaitEstimate)
	}
	ok := sw.add(cfg, "SEQ", mk, nil)
	bad := sw.add(cfg, "SEQ", mk, func(int64) (*workload.Workload, error) {
		return nil, fmt.Errorf("load: %w", sentinel)
	})
	if err := sw.run(); err != nil {
		t.Fatalf("tolerated error failed the sweep: %v", err)
	}
	if sw.failed(ok) {
		t.Error("healthy group reported failed")
	}
	if !sw.failed(bad) || !errors.Is(sw.groupErr(bad), sentinel) {
		t.Errorf("tolerated group: failed=%v err=%v", sw.failed(bad), sw.groupErr(bad))
	}
	if sw.meanResponse(ok) <= 0 {
		t.Error("healthy group has no response time")
	}
}

// TestCellWallClockIsRealTime sanity-checks the profiling surface: Wall is
// real elapsed time, not virtual.
func TestCellWallClockIsRealTime(t *testing.T) {
	cfg := exec.DefaultConfig()
	o := Options{Small: true}
	res := o.runCell(cell{Seed: 1, Config: cfg, Strategy: "SEQ", Deliveries: func(w *workload.Workload) map[string]exec.Delivery {
		return uniformDeliveries(w, cfg.InitialWaitEstimate)
	}})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Wall <= 0 || res.Wall > time.Hour {
		t.Errorf("wall = %v, want a positive real duration", res.Wall)
	}
	if res.ResponseTime <= 0 {
		t.Error("no virtual response time")
	}
}
