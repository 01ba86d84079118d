package experiment

import (
	"errors"

	"dqs/internal/core"
	"dqs/internal/exec"
)

// FirstTupleLatency sweeps the memory grant and measures latency-to-first-
// tuple next to total response time, comparing legacy DSE (every temp page
// written through, §4.4) against governed DSE (temp pages resident under
// the grant, spilled on demand; same scheduling and repair otherwise) with
// timeout-driven scrambling (SCR) as the first-tuple reference. Resident
// pages never pay a write and fully consumed ones never touch the disk
// timeline, so answers start flowing earlier wherever the grant has room
// to spare. Infeasible grants (for either engine path, or SCR overflowing —
// it cannot materialize) are expected per-point outcomes plotted as -1.
func FirstTupleLatency(o Options) (*Figure, error) {
	fig := NewFigure("FirstTuple/memory", "first-tuple latency vs memory grant; -1 = infeasible",
		"grant(MB)", "value",
		"DSE(s)", "DSEgov(s)", "DSE-first(s)", "DSEgov-first(s)", "SCR-first(s)",
		"repairs", "gov-repairs")
	grantsMB := []float64{5, 8, 10, 12, 16, 32, 64}
	if o.Small {
		grantsMB = []float64{0.5, 0.8, 1, 1.2, 1.6, 3.2, 6.4}
	}
	sw := o.newSweep(fig.ID)
	sw.tolerate = func(err error) bool {
		return errors.Is(err, core.ErrInsufficientMemory) || errors.Is(err, exec.ErrMemoryExceeded)
	}
	type point struct{ legacy, gov, scr seedGroup }
	points := make([]point, len(grantsMB))
	for i, mb := range grantsMB {
		cfg := o.config()
		cfg.MemoryBytes = int64(mb * (1 << 20))
		mk := o.ablationDeliveries(cfg)
		gcfg := cfg
		gcfg.Governor = true
		points[i] = point{
			legacy: sw.add(cfg, "DSE", mk, nil),
			gov:    sw.add(gcfg, "DSE", mk, nil),
			scr:    sw.add(cfg, "SCR", mk, nil),
		}
	}
	if err := sw.run(); err != nil {
		return nil, err
	}
	first := func(r exec.Result) float64 { return r.FirstTupleTime.Seconds() }
	repairs := func(r exec.Result) float64 { return float64(r.MemRepairs) }
	for i, mb := range grantsMB {
		p := points[i]
		resp := func(g seedGroup) float64 {
			if sw.failed(g) {
				return -1
			}
			return sw.meanResponse(g)
		}
		metric := func(g seedGroup, f func(exec.Result) float64) float64 {
			if sw.failed(g) {
				return -1
			}
			return sw.mean(g, f)
		}
		fig.AddPoint(mb,
			resp(p.legacy),
			resp(p.gov),
			metric(p.legacy, first),
			metric(p.gov, first),
			metric(p.scr, first),
			metric(p.legacy, repairs),
			metric(p.gov, repairs))
	}
	return fig, nil
}
