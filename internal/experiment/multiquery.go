package experiment

import (
	"fmt"
	"time"

	"dqs/internal/exec"
	"dqs/internal/server"
	"dqs/internal/workload"
)

// MultiQuery explores the paper's §6 future-work direction: several
// integration queries executing concurrently on one mediator under a
// single global dynamic scheduler. For each concurrency level it reports
// the average per-query response time, the makespan (when the last query
// finishes), the serial-execution total for comparison, and the resulting
// throughput speedup — the response-time/throughput tradeoff §6 discusses.
func MultiQuery(o Options) (*Figure, error) {
	cfg := o.config()
	// Scale the shared grant with concurrency so memory is not the story
	// here (the memory ablation covers that axis).
	cfg.MemoryBytes *= 4
	wait := 50 * time.Microsecond
	fig := newFigure("MultiQuery", "concurrent queries on one mediator (DSE, global scheduler)",
		"queries", "value", "avg-response(s)", "makespan(s)", "serial(s)", "speedup")

	// A multi-query measurement is not a plain cell (it drives one server
	// batch plus a serial reference), but each (concurrency level, seed) pair
	// is still an independent deterministic simulation, so they all run
	// concurrently on the same bounded pool and are folded back in
	// deterministic order.
	levels := []int{1, 2, 3, 4}
	seeds := o.seeds()
	type unit struct{ avgResp, makespan, serial float64 }
	units := make([]unit, len(levels)*len(seeds))
	err := o.forEach(len(units), func(j int) error {
		n, seed := levels[j/len(seeds)], seeds[j%len(seeds)]
		start := time.Now()
		ucfg := withSeed(cfg, seed)
		srv, err := server.New(server.Config{Exec: ucfg, Strategy: "DSE"})
		if err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			w, err := o.loadQueryInstance(seed, i)
			if err != nil {
				return err
			}
			if err := srv.Submit(server.Query{Label: fmt.Sprintf("q%d", i+1), Workload: w,
				Deliveries: uniformDeliveries(w, wait)}); err != nil {
				return err
			}
		}
		reports, _, err := srv.Run()
		if err != nil {
			return fmt.Errorf("n=%d: %w", n, err)
		}
		var sumResp, maxResp float64
		for _, rep := range reports {
			s := rep.Result.ResponseTime.Seconds()
			sumResp += s
			if s > maxResp {
				maxResp = s
			}
		}
		last := reports[n-1].Result
		units[j].avgResp = sumResp / float64(n)
		units[j].makespan = maxResp

		// Serial reference: the same queries one after another on fresh
		// mediators.
		var tot float64
		for i := 0; i < n; i++ {
			w, err := o.loadQueryInstance(seed, i)
			if err != nil {
				return err
			}
			res, err := runStrategy(w, ucfg, uniformDeliveries(w, wait), "DSE")
			if err != nil {
				return err
			}
			tot += res.ResponseTime.Seconds()
		}
		units[j].serial = tot
		o.Stats.observe(cellResult{Result: last, Wall: time.Since(start)})
		return nil
	})
	if err != nil {
		return nil, err
	}
	for li, n := range levels {
		var avgResp, makespan, serial float64
		for si := range seeds {
			u := units[li*len(seeds)+si]
			avgResp += u.avgResp
			makespan += u.makespan
			serial += u.serial
		}
		reps := float64(len(seeds))
		avgResp /= reps
		makespan /= reps
		serial /= reps
		speedup := 0.0
		if makespan > 0 {
			speedup = serial / makespan
		}
		fig.addPoint(float64(n), avgResp, makespan, serial, speedup)
	}
	return fig, nil
}

func withSeed(cfg exec.Config, seed int64) exec.Config {
	cfg.Seed = seed
	return cfg
}

// loadQueryInstance returns the i-th concurrent query's workload: the
// Figure-5 shape with per-instance data seeds so the queries are distinct.
func (o Options) loadQueryInstance(seed int64, i int) (*workload.Workload, error) {
	return o.loadWorkload(seed*17 + int64(i))
}
