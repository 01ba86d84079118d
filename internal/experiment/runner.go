package experiment

import (
	"context"
	"fmt"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dqs/internal/exec"
	"dqs/internal/workload"
)

// deliveriesFn builds the per-wrapper delivery behaviour for a workload.
type deliveriesFn func(w *workload.Workload) map[string]exec.Delivery

// Cell is one independent simulator run of an experiment grid: a workload
// (usually a cached seed of the Figure-5 family), an execution
// configuration, a strategy and a delivery generator. Every sweep in the
// paper's evaluation — figure × config × strategy × seed — decomposes into
// cells, and cells are the unit of parallelism: each runs on its own
// mediator with its own virtual clock, so any number can execute
// concurrently without changing the virtual times they report.
type Cell struct {
	// Figure names the figure (or sweep) the cell belongs to; it becomes
	// the cell's dqs_figure pprof label. Empty means unlabeled.
	Figure string
	// Load returns the cell's workload; nil means the options' Figure-5
	// workload for Seed, shared through the workload cache.
	Load func() (*workload.Workload, error)
	// Seed selects the default workload and is stamped into Config.Seed
	// (it drives both the dataset and the delay draws).
	Seed int64
	// Config is the execution configuration; its Seed field is overwritten
	// with the cell's Seed.
	Config exec.Config
	// Strategy names the execution strategy (SEQ, MA, DSE, SCR, DPHJ).
	Strategy string
	// Deliveries builds the per-wrapper delivery behaviour.
	Deliveries deliveriesFn
}

// CellResult is one executed cell: the run summary plus the harness's own
// profiling of the run (real wall-clock, not virtual time).
type CellResult struct {
	exec.Result
	// Wall is the real time the cell took to simulate.
	Wall time.Duration
	Err  error
}

// RunStats aggregates per-cell profiling counters across every sweep run
// with Options.Stats pointing at it, making the harness double as a
// profiling surface. All methods are safe for concurrent use; a nil
// *RunStats discards observations.
type RunStats struct {
	cells    atomic.Int64
	wall     atomic.Int64 // summed cell wall-clock, nanoseconds
	replans  atomic.Int64
	timeouts atomic.Int64
	errs     atomic.Int64
}

// observe folds one executed cell into the counters.
func (s *RunStats) observe(r CellResult) {
	if s == nil {
		return
	}
	s.cells.Add(1)
	s.wall.Add(int64(r.Wall))
	if r.Err != nil {
		s.errs.Add(1)
		return
	}
	s.replans.Add(int64(r.Replans))
	s.timeouts.Add(int64(r.Timeouts))
}

// Cells returns the number of cells executed.
func (s *RunStats) Cells() int64 { return s.cells.Load() }

// CellWall returns the summed wall-clock time spent inside cells (larger
// than elapsed time when cells overlap).
func (s *RunStats) CellWall() time.Duration { return time.Duration(s.wall.Load()) }

// Summary renders the counters as one line.
func (s *RunStats) Summary() string {
	return fmt.Sprintf("cells=%d cell-time=%v replans=%d timeouts=%d errors=%d",
		s.cells.Load(), time.Duration(s.wall.Load()).Round(time.Millisecond),
		s.replans.Load(), s.timeouts.Load(), s.errs.Load())
}

// Workers returns the effective worker-pool size for these options.
func (o Options) Workers() int {
	if o.Parallel > 0 {
		return o.Parallel
	}
	return runtime.GOMAXPROCS(0)
}

// forEach runs job(0..n-1) on a bounded worker pool. Unlike a sequential
// loop it always runs every job; the returned error is the lowest-index
// one, which is the error a sequential loop would have hit first, so error
// reporting stays deterministic under parallelism. Jobs must only write
// state they own (their own index).
func (o Options) forEach(n int, job func(i int) error) error {
	workers := o.Workers()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		var firstErr error
		for i := 0; i < n; i++ {
			if err := job(i); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		return firstErr
	}
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		mu       sync.Mutex
		errIdx   = -1
		firstErr error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				if err := job(i); err != nil {
					mu.Lock()
					if errIdx < 0 || i < errIdx {
						errIdx, firstErr = i, err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// runCell executes one cell on a fresh mediator and profiles it. The run
// carries pprof labels (dqs_figure, dqs_cell = strategy, dqs_seed) so CPU
// profiles of a sweep break down by grid entry.
func (o Options) runCell(c Cell) CellResult {
	start := time.Now()
	load := c.Load
	if load == nil {
		load = func() (*workload.Workload, error) { return o.loadWorkload(c.Seed) }
	}
	var out CellResult
	labels := pprof.Labels("dqs_figure", c.Figure, "dqs_cell", c.Strategy, "dqs_seed", strconv.FormatInt(c.Seed, 10))
	pprof.Do(context.Background(), labels, func(context.Context) {
		w, err := load()
		if err == nil {
			cfg := c.Config
			cfg.Seed = c.Seed
			out.Result, err = runStrategy(w, cfg, c.Deliveries(w), c.Strategy)
		}
		out.Err = err
	})
	out.Wall = time.Since(start)
	o.Stats.observe(out)
	return out
}

// RunCells executes every cell on the bounded worker pool and returns the
// results in cell order: assembly order is the caller's enqueue order, so
// parallelism never reorders figure rows. Per-cell errors are reported in
// the results, not returned.
func (o Options) RunCells(cells []Cell) []CellResult {
	results := make([]CellResult, len(cells))
	o.forEach(len(cells), func(i int) error { //nolint:errcheck // jobs store errors in results
		results[i] = o.runCell(cells[i])
		return nil
	})
	return results
}

// seedGroup addresses the per-seed repetition cells of one (point,
// strategy) grid entry inside a sweep.
type seedGroup struct{ start, n int }

// sweep accumulates one experiment's full cell grid so that every cell —
// across x-points, configurations, strategies and seeds — executes in a
// single concurrent batch, then serves the per-group aggregates the figure
// assembly reads back in deterministic order.
type sweep struct {
	o       Options
	figure  string
	cells   []Cell
	results []CellResult
	// tolerate marks errors that are expected per-point outcomes (e.g. an
	// infeasible memory grant) rather than sweep failures.
	tolerate func(error) bool
}

// newSweep starts an empty sweep over the options' seeds and worker pool;
// figure names the sweep in its cells' pprof labels.
func (o Options) newSweep(figure string) *sweep { return &sweep{o: o, figure: figure} }

// add enqueues one cell per option seed and returns the group handle used
// to read the averaged results back after run. A nil load means the
// cached Figure-5 workload; otherwise load is called with each seed.
func (s *sweep) add(cfg exec.Config, strategy string, mk deliveriesFn, load func(seed int64) (*workload.Workload, error)) seedGroup {
	g := seedGroup{start: len(s.cells)}
	for _, seed := range s.o.seeds() {
		c := Cell{Figure: s.figure, Seed: seed, Config: cfg, Strategy: strategy, Deliveries: mk}
		if load != nil {
			seed := seed
			c.Load = func() (*workload.Workload, error) { return load(seed) }
		}
		s.cells = append(s.cells, c)
		g.n++
	}
	return g
}

// run executes the accumulated grid. The returned error is the
// lowest-index non-tolerated cell error — the one the sequential
// loops would have reported first.
func (s *sweep) run() error {
	s.results = s.o.RunCells(s.cells)
	for i, r := range s.results {
		if r.Err != nil && (s.tolerate == nil || !s.tolerate(r.Err)) {
			return fmt.Errorf("%s seed %d: %w", s.cells[i].Strategy, s.cells[i].Seed, r.Err)
		}
	}
	return nil
}

// failed reports whether any repetition of the group ended in a
// (tolerated) error.
func (s *sweep) failed(g seedGroup) bool {
	for _, r := range s.results[g.start : g.start+g.n] {
		if r.Err != nil {
			return true
		}
	}
	return false
}

// groupErr returns the first error of the group's repetitions, in seed
// order.
func (s *sweep) groupErr(g seedGroup) error {
	for _, r := range s.results[g.start : g.start+g.n] {
		if r.Err != nil {
			return r.Err
		}
	}
	return nil
}

// mean averages metric over the group's seed repetitions.
func (s *sweep) mean(g seedGroup, metric func(exec.Result) float64) float64 {
	var total float64
	for _, r := range s.results[g.start : g.start+g.n] {
		total += metric(r.Result)
	}
	return total / float64(g.n)
}

// meanResponse averages the group's response time in seconds — the metric
// of every figure in the paper.
func (s *sweep) meanResponse(g seedGroup) float64 {
	return s.mean(g, func(r exec.Result) float64 { return r.ResponseTime.Seconds() })
}
