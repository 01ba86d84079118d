package experiment

import (
	"errors"

	"dqs/internal/core"
	"dqs/internal/exec"
)

// FirstTupleLatency sweeps the memory grant and measures DSE's
// latency-to-first-tuple next to its total response time and repair count,
// with timeout-driven scrambling (SCR) as the first-tuple reference.
// Resident temp pages never pay a write and fully consumed ones never touch
// the disk timeline, so answers start flowing earlier wherever the grant has
// room to spare. Infeasible grants (DSE below its floor, or SCR overflowing
// — it cannot materialize) are expected per-point outcomes plotted as -1.
func FirstTupleLatency(o Options) (*Figure, error) {
	fig := NewFigure("FirstTuple/memory", "first-tuple latency vs memory grant; -1 = infeasible",
		"grant(MB)", "value",
		"DSE(s)", "DSE-first(s)", "SCR-first(s)", "repairs")
	grantsMB := []float64{5, 8, 10, 12, 16, 32, 64}
	if o.Small {
		grantsMB = []float64{0.5, 0.8, 1, 1.2, 1.6, 3.2, 6.4}
	}
	sw := o.newSweep(fig.ID)
	sw.tolerate = func(err error) bool {
		return errors.Is(err, core.ErrInsufficientMemory) || errors.Is(err, exec.ErrMemoryExceeded)
	}
	type point struct{ dse, scr seedGroup }
	points := make([]point, len(grantsMB))
	for i, mb := range grantsMB {
		cfg := o.config()
		cfg.MemoryBytes = int64(mb * (1 << 20))
		mk := o.ablationDeliveries(cfg)
		points[i] = point{
			dse: sw.add(cfg, "DSE", mk, nil),
			scr: sw.add(cfg, "SCR", mk, nil),
		}
	}
	if err := sw.run(); err != nil {
		return nil, err
	}
	response := func(r exec.Result) float64 { return r.ResponseTime.Seconds() }
	first := func(r exec.Result) float64 { return r.FirstTupleTime.Seconds() }
	repairs := func(r exec.Result) float64 { return float64(r.MemRepairs) }
	metric := func(g seedGroup, f func(exec.Result) float64) float64 {
		if sw.failed(g) {
			return -1
		}
		return sw.mean(g, f)
	}
	for i, mb := range grantsMB {
		p := points[i]
		fig.AddPoint(mb,
			metric(p.dse, response),
			metric(p.dse, first),
			metric(p.scr, first),
			metric(p.dse, repairs))
	}
	return fig, nil
}
