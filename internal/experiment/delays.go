package experiment

import (
	"time"

	"dqs/internal/exec"
	"dqs/internal/source"
	"dqs/internal/workload"
)

// DelayClasses reproduces the paper's §1.1–§1.3 discussion as a table: the
// three delay classes (initial delay, bursty arrival, slow delivery)
// executed under SEQ, the two adaptation levels the introduction surveys —
// SCR (scheduling-level, timeout-driven scrambling) and DPHJ
// (operator-level, double-pipelined hash joins) — and DSE. Scrambling only
// helps when delays are long enough to trip its timeout; DPHJ absorbs all
// three at roughly double the memory; DSE handles all three within the
// plan's normal footprint.
func DelayClasses(o Options) (*Figure, error) {
	cfg := o.config()
	// DPHJ retains every input and intermediate on both sides of its
	// joins; give all strategies the same ample grant so delay behaviour,
	// not memory, is the variable here (the memory ablation covers that).
	cfg.MemoryBytes *= 4
	fig := newFigure("DelayClasses", "three delay classes (§1.2): SEQ vs SCR vs DPHJ vs DSE",
		"class#", "response time (s)", "SEQ", "SCR", "DPHJ", "DSE")

	scale := 1.0
	if o.Small {
		scale = 0.1
	}
	initial := time.Duration(2 * scale * float64(time.Second))
	scenarios := []struct {
		name string
		mk   func(w *workload.Workload) map[string]exec.Delivery
	}{
		{"initial-delay(D)", func(w *workload.Workload) map[string]exec.Delivery {
			d := uniformDeliveries(w, cfg.InitialWaitEstimate)
			d["D"] = exec.Delivery{MeanWait: cfg.InitialWaitEstimate, InitialDelay: initial}
			return d
		}},
		{"bursty(C)", func(w *workload.Workload) map[string]exec.Delivery {
			d := uniformDeliveries(w, cfg.InitialWaitEstimate)
			card := o.cardOf("C")
			var phases []source.Phase
			chunk := card / 6
			for row, fast := 0, true; row < card; row, fast = row+chunk, !fast {
				wph := 5 * time.Microsecond
				if !fast {
					wph = 300 * time.Microsecond
				}
				phases = append(phases, source.Phase{FromRow: row, W: wph})
			}
			d["C"] = exec.Delivery{Phases: phases}
			return d
		}},
		{"slow-delivery(A)", func(w *workload.Workload) map[string]exec.Delivery {
			d := uniformDeliveries(w, cfg.InitialWaitEstimate)
			d["A"] = exec.Delivery{MeanWait: 10 * cfg.InitialWaitEstimate}
			return d
		}},
	}
	sw := o.newSweep(fig.ID)
	groups := make([][]seedGroup, len(scenarios))
	for i, sc := range scenarios {
		for _, strat := range []string{"SEQ", "SCR", "DPHJ", "DSE"} {
			groups[i] = append(groups[i], sw.add(cfg, strat, sc.mk, nil))
		}
	}
	if err := sw.run(); err != nil {
		return nil, err
	}
	for i := range scenarios {
		values := make([]float64, 0, 4)
		for _, g := range groups[i] {
			values = append(values, sw.meanResponse(g))
		}
		fig.addPoint(float64(i), values...)
	}
	return fig, nil
}
