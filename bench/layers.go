package main

import (
	"fmt"
	"math"
	"time"

	"dqs"
	"dqs/internal/exec"
	"dqs/internal/plan"
	"dqs/internal/reftest"
)

// emitStats accumulates what the traced pass's sinks observed: the tuples
// each point of the cycle emitted (counted once per point, so the mean is a
// function of the seed alone) and the host time to every op's first tuple.
type emitStats struct {
	tuples  map[int]int64
	firstMs []float64
}

func (e *emitStats) observe(point int, start time.Time, sinks ...*countingSink) {
	var n int64
	var first time.Time
	for _, s := range sinks {
		n += s.tuples
		if s.tuples > 0 && (first.IsZero() || s.firstEmit.Before(first)) {
			first = s.firstEmit
		}
	}
	if e.tuples == nil {
		e.tuples = map[int]int64{}
	}
	e.tuples[point] = n
	if !first.IsZero() {
		e.firstMs = append(e.firstMs, float64(first.Sub(start))/float64(time.Millisecond))
	}
}

func (e *emitStats) metrics(m map[string]float64) {
	var sum float64
	for _, n := range e.tuples {
		sum += float64(n)
	}
	if len(e.tuples) > 0 {
		m["exec.emit_tuples"] = sum / float64(len(e.tuples))
	}
	m["exec.first_emit_wall_ms"] = mean(e.firstMs)
}

// liveOutputCols returns the positions of the result schema that carry data
// end to end: the join keys and predicate columns. The columnar dataflow
// projects every other column away at the wrapper, so the engine's result
// tuples hold zeros there.
func liveOutputCols(root *plan.Node) []int {
	var cols []int
	var walk func(n *plan.Node)
	walk = func(n *plan.Node) {
		switch n.Kind {
		case plan.KindScan:
			if n.Pred != nil {
				cols = append(cols, root.Schema.MustIndexOf(n.Pred.Col))
			}
		case plan.KindHashJoin:
			cols = append(cols, root.Schema.MustIndexOf(n.BuildKey), root.Schema.MustIndexOf(n.ProbeKey))
			walk(n.Build)
			walk(n.Probe)
		case plan.KindOutput:
			walk(n.Child)
		}
	}
	walk(root)
	return cols
}

// referenceDigest is the order-insensitive digest of the plan's full answer
// according to the independent evaluator, over the live columns.
func referenceDigest(w *dqs.Workload) uint64 {
	sink := countingSink{live: liveOutputCols(w.Root)}
	for _, t := range reftest.Eval(w.Root, w.Dataset) {
		sink.Emit(0, t)
	}
	return sink.digest
}

func (c *cellWorkload) layer(cycle []outcome, budget time.Duration, m map[string]float64) error {
	c.emit.metrics(m)

	// The paper's own ratios, from the cycle's Results.
	var gain, lwb, saved []float64
	for p, o := range cycle {
		pt := &c.pts[p]
		by := map[dqs.Strategy]dqs.Result{}
		for i, s := range pt.strategies {
			by[s] = o.results[i]
		}
		dse := by[dqs.DSE]
		if seq, ok := by[dqs.SEQ]; ok {
			gain = append(gain, 100*float64(seq.ResponseTime-dse.ResponseTime)/float64(seq.ResponseTime))
		}
		bound, err := dqs.LowerBound(dqs.RunSpec{Workload: pt.ds.w, Config: pt.cfg, Strategy: dqs.DSE, Deliveries: pt.deliveries})
		if err != nil {
			return err
		}
		if dse.ResponseTime < bound {
			return fmt.Errorf("point %d: DSE response %v beats the lower bound %v", p, dse.ResponseTime, bound)
		}
		lwb = append(lwb, float64(dse.ResponseTime)/float64(bound))
		if c.name == "mem_pressure" {
			// The governor's pay-off, read as response time saved per
			// megabyte it keeps resident. Omitted (0) once the legacy
			// spill path is gone and the knob with it.
			legacy := pt.cfg
			if setIfPresent(&legacy, "Governor", false) {
				res, err := dqs.Run(dqs.RunSpec{Workload: pt.ds.w, Config: legacy, Strategy: dqs.DSE, Deliveries: pt.deliveries})
				if err != nil {
					return err
				}
				saved = append(saved, (res.ResponseTime-dse.ResponseTime).Seconds()/(float64(dse.PeakMemBytes)/(1<<20)))
			}
		}
	}
	m["paper.dse_gain_pct"] = mean(gain)
	m["paper.lwb_ratio"] = mean(lwb)
	m["mem.saved_s_per_resident_mb"] = mean(saved)

	// Tuple-set check: the streamed result of one DSE op per dataset must
	// digest to the independent evaluator's answer.
	seen := map[*dataset]bool{}
	for p := range c.pts {
		pt := &c.pts[p]
		if seen[pt.ds] {
			continue
		}
		seen[pt.ds] = true
		_, sink, err := runTraced(pt, dqs.DSE, nil, liveOutputCols(pt.ds.w.Root))
		if err != nil {
			return err
		}
		if want := referenceDigest(pt.ds.w); sink.digest != want {
			return fmt.Errorf("point %d: result tuple digest %x, reference evaluator says %x", p, sink.digest, want)
		}
	}

	if c.name == "scale_full" {
		if err := c.serialVersusParallel(budget/2, m); err != nil {
			return err
		}
	}
	pt := &c.pts[0]
	return replayLayers(pt.ds.w, pt.cfg, c.host.Nproc, c.build(), m)
}

// serialVersusParallel re-runs the cycle alternately at Workers=1 and at the
// workload's worker count: the first wall-clock evidence for or against the
// partition-parallel kernels on this host.
func (c *cellWorkload) serialVersusParallel(budget time.Duration, m map[string]float64) error {
	var serial, parallel []float64
	for start := time.Now(); len(serial) < 3*len(c.pts) || time.Since(start) < budget; {
		for p := range c.pts {
			pt := &c.pts[p]
			cfg := pt.cfg
			for _, workers := range []int{1, pt.cfg.Workers} {
				cfg.Workers = workers
				t0 := time.Now()
				res, err := dqs.Run(dqs.RunSpec{Workload: pt.ds.w, Config: cfg, Strategy: dqs.DSE, Deliveries: pt.deliveries})
				ms := float64(time.Since(t0)) / float64(time.Millisecond)
				if err != nil {
					return err
				}
				if res.OutputRows != pt.ds.rows {
					return fmt.Errorf("workers=%d: %d result rows, reference has %d", workers, res.OutputRows, pt.ds.rows)
				}
				if workers == 1 {
					serial = append(serial, ms)
				} else {
					parallel = append(parallel, ms)
				}
			}
		}
	}
	m["exec.serial_wall_ms_p50"] = percentile(serial, 0.5)
	if len(parallel) > 0 {
		m["exec.parallel_speedup"] = percentile(serial, 0.5) / percentile(parallel, 0.5)
	}
	return nil
}

func (s *serveWorkload) layer(cycle []outcome, budget time.Duration, m map[string]float64) error {
	s.emit.metrics(m)
	var resp []float64
	var wait, makespan float64
	queries := 0
	for _, o := range cycle {
		st := o.stats
		m["server.peak_active"] = math.Max(m["server.peak_active"], float64(st.PeakActive))
		m["server.peak_queued"] = math.Max(m["server.peak_queued"], float64(st.PeakQueued))
		m["server.cancelled"] += float64(st.Cancelled)
		m["source.shared_streams"] += float64(st.SharedStreams)
		m["source.stream_taps"] += float64(st.StreamTaps)
		wait += st.TotalAdmissionWait.Seconds()
		makespan += st.Makespan.Seconds()
		queries += st.Queries
		r, _ := o.virt()
		for _, v := range r {
			resp = append(resp, v*1e3)
		}
	}
	m["server.virt_admission_wait_s"] = wait / float64(queries)
	m["server.virt_makespan_s"] = makespan / float64(len(cycle))
	m["server.virt_response_ms_p50"] = percentile(resp, 0.5)
	m["server.virt_response_ms_p90"] = percentile(resp, 0.9)

	// Tuple-set check on one batch: every completed query's stream digests
	// to the independent evaluator's answer.
	b := &s.batches[0]
	sinks := make([]*countingSink, len(b.queries))
	for i, q := range b.queries {
		sinks[i] = &countingSink{live: liveOutputCols(q.Workload.Root)}
	}
	out, err := s.runBatch(0, nil, sinks)
	if err != nil {
		return err
	}
	digests := map[*dqs.Workload]uint64{}
	for i, q := range b.queries {
		if out.cancelled[i] {
			continue
		}
		want, ok := digests[q.Workload]
		if !ok {
			want = referenceDigest(q.Workload)
			digests[q.Workload] = want
		}
		if sinks[i].digest != want {
			return fmt.Errorf("query %s: result tuple digest %x, reference evaluator says %x", q.Label, sinks[i].digest, want)
		}
	}

	// Query assembly happens inside Server.Run, out of the seams' reach:
	// replay it as the server does it, sixteen queries onto one mediator.
	var assemble []float64
	for rep := 0; rep < 5; rep++ {
		med, err := exec.NewMediator(s.cfg)
		if err != nil {
			return err
		}
		for _, q := range b.queries {
			t0 := time.Now()
			if _, err := med.AddQuery(q.Label, q.Workload.Root, q.Workload.Dataset, q.Deliveries); err != nil {
				return err
			}
			assemble = append(assemble, float64(time.Since(t0))/1e3)
		}
	}
	m["exec.assemble_us_p50"] = percentile(assemble, 0.5)
	if run := m["server.run_ms_p50"]; run > 0 {
		m["exec.assemble_share"] = mean(assemble) * float64(len(b.queries)) / 1e3 / run
	}
	return replayLayers(b.queries[0].Workload, s.cfg, s.host.Nproc, dqs.Fig5Small, m)
}
