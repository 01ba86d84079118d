package experiment

import (
	"fmt"
	"time"

	"dqs/internal/exec"
	"dqs/internal/workload"
)

// StarSweep runs the star-schema scenario: a fast fact wrapper joined to
// several slow, *independent* dimension wrappers. The dimension chains have
// no blocking dependencies between them, so dynamic scheduling overlaps all
// their retrievals — response approaches max(dim retrieval) + fact, while
// the iterator model pays roughly the sum. This isolates the concurrency
// half of DSE's advantage from the degradation half (the Figure-5 workload
// mixes both).
func StarSweep(o Options) (*Figure, error) {
	cfg := o.config()
	spec := workload.DefaultStarSpec()
	if o.Small {
		spec = workload.SmallStarSpec()
	}
	fig := newFigure("Star", fmt.Sprintf("star schema: %d slow dimensions, fast fact", spec.Dimensions),
		"dim-wait(us)", "response time (s)",
		append(append([]string{}, strategies...), "LWB")...)
	sw := o.newSweep(fig.ID)
	type point struct {
		us     float64
		mk     deliveriesFn
		groups []seedGroup
	}
	var points []point
	for _, us := range []float64{20, 50, 100, 200, 400, 800} {
		wait := time.Duration(us * float64(time.Microsecond))
		mkFor := func(w *workload.Workload) map[string]exec.Delivery {
			d := uniformDeliveries(w, cfg.InitialWaitEstimate)
			for i := 0; i < spec.Dimensions; i++ {
				d[fmt.Sprintf("DIM%d", i)] = exec.Delivery{MeanWait: wait}
			}
			return d
		}
		p := point{us: us, mk: mkFor}
		for _, s := range strategies {
			p.groups = append(p.groups, sw.add(cfg, s, mkFor, o.loadStar))
		}
		points = append(points, p)
	}
	if err := sw.run(); err != nil {
		return nil, fmt.Errorf("star: %w", err)
	}
	for _, p := range points {
		values := make([]float64, 0, len(strategies)+1)
		for _, g := range p.groups {
			values = append(values, sw.meanResponse(g))
		}
		w, err := o.loadStar(o.seeds()[0])
		if err != nil {
			return nil, err
		}
		lwb, err := lowerBound(w, cfg, p.mk(w))
		if err != nil {
			return nil, err
		}
		values = append(values, lwb.Seconds())
		fig.addPoint(p.us, values...)
	}
	return fig, nil
}
