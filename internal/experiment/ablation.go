package experiment

import (
	"fmt"

	"errors"

	"time"

	"dqs/internal/core"
	"dqs/internal/exec"
	"dqs/internal/workload"
)

// ablation deliveries: one moderately slowed relation (A at 4.5 s
// retrieval) over the w_min baseline — the regime where scheduling choices
// matter most.
func (o Options) ablationDeliveries(cfg exec.Config) func(w *workload.Workload) map[string]exec.Delivery {
	card := o.cardOf("A")
	wSlow := time.Duration(4.5 / float64(card) * float64(time.Second))
	return func(w *workload.Workload) map[string]exec.Delivery {
		d := uniformDeliveries(w, cfg.InitialWaitEstimate)
		d["A"] = exec.Delivery{MeanWait: wSlow}
		return d
	}
}

// AblationBMT sweeps the benefit-materialization threshold (§4.4): bmt = 0
// degrades every blocked critical chain, large bmt disables degradation.
func AblationBMT(o Options) (*Figure, error) {
	fig := newFigure("Ablation/bmt", "benefit materialization threshold sweep",
		"bmt", "value", "DSE(s)", "degradations", "mat(Ktuples)")
	sw := o.newSweep(fig.ID)
	bmts := []float64{0, 0.25, 0.5, 1, 1.5, 2, 4, 1e9}
	groups := make([]seedGroup, len(bmts))
	for i, bmt := range bmts {
		cfg := o.config()
		cfg.BMT = bmt
		groups[i] = sw.add(cfg, "DSE", o.ablationDeliveries(cfg), nil)
	}
	if err := sw.run(); err != nil {
		return nil, err
	}
	for i, bmt := range bmts {
		x := bmt
		if x > 100 {
			x = 100 // plot sentinel for "disabled"
		}
		fig.addPoint(x,
			sw.meanResponse(groups[i]),
			sw.mean(groups[i], func(r exec.Result) float64 { return float64(r.Degradations) }),
			sw.mean(groups[i], func(r exec.Result) float64 { return float64(r.MaterializedTuples) / 1000 }))
	}
	return fig, nil
}

// AblationBatch sweeps the DQP batch size (§3.2): tiny batches switch
// fragments constantly; huge batches approach chain-at-a-time behaviour.
func AblationBatch(o Options) (*Figure, error) {
	fig := newFigure("Ablation/batch", "DQP batch size sweep",
		"batch(tuples)", "value", "DSE(s)", "replans")
	sw := o.newSweep(fig.ID)
	batches := []int{16, 64, 256, 1024, 4096, 16384}
	groups := make([]seedGroup, len(batches))
	for i, batch := range batches {
		cfg := o.config()
		cfg.BatchTuples = batch
		groups[i] = sw.add(cfg, "DSE", o.ablationDeliveries(cfg), nil)
	}
	if err := sw.run(); err != nil {
		return nil, err
	}
	for i, batch := range batches {
		fig.addPoint(float64(batch),
			sw.meanResponse(groups[i]),
			sw.mean(groups[i], func(r exec.Result) float64 { return float64(r.Replans) }))
	}
	return fig, nil
}

// AblationQueue sweeps the window size (queue capacity in pages): the
// window bounds how much delivery the mediator can buffer ahead, which is
// exactly what lets concurrent fragments overlap delays.
func AblationQueue(o Options) (*Figure, error) {
	fig := newFigure("Ablation/queue", "wrapper queue (window) size sweep",
		"queue(pages)", "response time (s)", "SEQ", "DSE")
	pageSizes := []int{1, 2, 4, 8, 16, 64}
	mkCfg := func(pages int) exec.Config {
		cfg := o.config()
		cfg.QueueTuples = pages * cfg.Params.TuplesPerPage()
		return cfg
	}
	return o.twoStrategySweep(fig, floatsOf(pageSizes), mkCfg)
}

// floatsOf converts an int axis to the float x-values a Figure plots.
func floatsOf(xs []int) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x)
	}
	return out
}

// twoStrategySweep runs the SEQ-vs-DSE config sweeps shared by the queue
// and message ablations: one configuration per x-value, both strategies,
// averaged over the option seeds.
func (o Options) twoStrategySweep(fig *Figure, xs []float64, mkCfg func(x int) exec.Config) (*Figure, error) {
	sw := o.newSweep(fig.ID)
	type point struct{ seq, dse seedGroup }
	points := make([]point, len(xs))
	for i, x := range xs {
		cfg := mkCfg(int(x))
		mk := o.ablationDeliveries(cfg)
		points[i] = point{seq: sw.add(cfg, "SEQ", mk, nil), dse: sw.add(cfg, "DSE", mk, nil)}
	}
	if err := sw.run(); err != nil {
		return nil, err
	}
	for i, x := range xs {
		fig.addPoint(x, sw.meanResponse(points[i].seq), sw.meanResponse(points[i].dse))
	}
	return fig, nil
}

// AblationMessage sweeps the message payload (pages per message), the one
// Table 1 degree of freedom the paper does not pin down (see DESIGN.md §3).
func AblationMessage(o Options) (*Figure, error) {
	fig := newFigure("Ablation/message", "message payload sweep",
		"pages/msg", "response time (s)", "SEQ", "DSE")
	mkCfg := func(pages int) exec.Config {
		cfg := o.config()
		cfg.Params.PagesPerMessage = pages
		return cfg
	}
	return o.twoStrategySweep(fig, floatsOf([]int{1, 2, 4, 8, 16}), mkCfg)
}

// AblationSkew sweeps systematic optimizer estimation error (the paper's
// §1 "inaccuracy of estimates" problem): every join-output estimate is off
// by the given factor while the data keeps its true selectivities. DSE's
// scheduling decisions (criticality, memory fit, degradation) then work
// from wrong numbers; the run must stay correct and should stay close to
// the accurate-estimate response time.
func AblationSkew(o Options) (*Figure, error) {
	fig := newFigure("Ablation/skew", "optimizer estimation-error sweep",
		"skew(x)", "value", "DSE(s)", "memRepairs")
	sw := o.newSweep(fig.ID)
	skews := []float64{0.25, 0.5, 1, 2, 4}
	groups := make([]seedGroup, len(skews))
	for i, skew := range skews {
		skew := skew
		cfg := o.config()
		// A moderately tight grant makes estimate quality matter.
		if o.Small {
			cfg.MemoryBytes = 2 << 20
		} else {
			cfg.MemoryBytes = 20 << 20
		}
		load := func(seed int64) (*workload.Workload, error) { return loadSkewed(o, seed, skew) }
		groups[i] = sw.add(cfg, "DSE", o.ablationDeliveries(cfg), load)
	}
	if err := sw.run(); err != nil {
		return nil, fmt.Errorf("skew: %w", err)
	}
	for i, skew := range skews {
		fig.addPoint(skew,
			sw.meanResponse(groups[i]),
			sw.mean(groups[i], func(r exec.Result) float64 { return float64(r.MemRepairs) }))
	}
	return fig, nil
}

// loadSkewed builds (or reuses) a skewed-estimate workload at the options'
// scale. Skewed variants are cached like every other workload — keyed by
// the skew factor — because they too are read-only during execution; the
// skew sweep re-runs each (seed, skew) dataset across its whole
// configuration grid, and regeneration used to dominate the sweep's
// allocations.
func loadSkewed(o Options, seed int64, skew float64) (*workload.Workload, error) {
	if skew == 1 {
		return o.loadWorkload(seed)
	}
	return loadCachedWorkload(workloadKey{kind: "fig5-skew", seed: seed, small: o.Small, skew: skew},
		func() (*workload.Workload, error) {
			if o.Small {
				return workload.Fig5SmallSkewed(seed, skew)
			}
			return workload.Fig5Skewed(seed, skew)
		})
}

// AblationMemory sweeps the memory grant: below the workload's natural
// footprint the DQO must repair the plan with materialization splits
// (§4.2), trading I/O for feasibility. Grants too small for even a single
// required hash table are genuinely infeasible and reported as -1.
func AblationMemory(o Options) (*Figure, error) {
	fig := newFigure("Ablation/memory", "memory grant sweep (DSE); -1 = infeasible",
		"grant(MB)", "value", "DSE(s)", "memRepairs", "peak(MB)")
	grantsMB := []float64{3, 5, 8, 9, 10, 12, 16, 32, 64}
	if o.Small {
		grantsMB = []float64{0.3, 0.5, 0.8, 0.9, 1, 1.2, 1.6, 3.2, 6.4}
	}
	sw := o.newSweep(fig.ID)
	// An infeasible grant is an expected per-point outcome, not a sweep
	// failure.
	sw.tolerate = func(err error) bool { return errors.Is(err, core.ErrInsufficientMemory) }
	groups := make([]seedGroup, len(grantsMB))
	for i, mb := range grantsMB {
		cfg := o.config()
		cfg.MemoryBytes = int64(mb * (1 << 20))
		groups[i] = sw.add(cfg, "DSE", o.ablationDeliveries(cfg), nil)
	}
	if err := sw.run(); err != nil {
		return nil, err
	}
	for i, mb := range grantsMB {
		if sw.failed(groups[i]) {
			fig.addPoint(mb, -1, 0, 0)
			continue
		}
		fig.addPoint(mb,
			sw.meanResponse(groups[i]),
			sw.mean(groups[i], func(r exec.Result) float64 { return float64(r.MemRepairs) }),
			sw.mean(groups[i], func(r exec.Result) float64 { return float64(r.PeakMemBytes) / (1 << 20) }))
	}
	return fig, nil
}
