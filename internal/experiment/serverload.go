package experiment

import (
	"fmt"
	"time"

	"dqs/internal/server"
)

// ServerLoad sweeps the multi-query mediator service across arrival rates
// and memory grants: a dqs server (one shared mediator, shared plan
// caches, shared wrapper streams) admits a fixed batch of identical
// queries arriving at a swept interarrival gap under a bounded admission
// cap, and reports — per grant size — the mean completion latency (from
// arrival to last tuple), the mean first-tuple latency and the mean
// admission wait. The x axis is the offered load in arrivals per unloaded
// response: single-query response times per interarrival gap, so 1.0 means
// queries arrive exactly as fast as an unloaded server answers one. It is
// not load per unit of mediator work: shared streams are scheduled from the
// mediator's epoch (DESIGN.md §5.2), so every query after the first replays
// the retained prefix at CPU speed and occupies its slot for well under one
// unloaded response — the admission queue starts to fill past load 1, not
// at it.
func ServerLoad(o Options) (*Figure, error) {
	const (
		queries   = 6
		maxActive = 3
	)
	// Offered load levels: interarrival = R / load, with R the measured
	// single-query response time.
	loads := []float64{0.5, 1, 2, 4}
	// Grant series: 4x the single-query grant (the multiquery experiment's
	// comfortable setting) against the unscaled 1x grant, where the active
	// queries contend for one shared budget and arbitration matters.
	base := o.config()
	grants := []struct {
		label string
		bytes int64
	}{
		{"grant=4x", base.MemoryBytes * 4},
		{"grant=1x", base.MemoryBytes},
	}
	order := make([]string, 0, 3*len(grants))
	for _, g := range grants {
		order = append(order,
			"latency(s) "+g.label,
			"first-tuple(s) "+g.label,
			"adm-wait(s) "+g.label)
	}
	fig := newFigure("ServerLoad", "mediator service under arrival load (fused, shared streams)",
		"offered-load", "seconds", order...)

	seeds := o.seeds()
	wait := 50 * time.Microsecond
	type unit struct{ latency, firstTuple, admWait float64 }
	units := make([]unit, len(loads)*len(grants)*len(seeds))
	err := o.forEach(len(units), func(j int) error {
		li := j / (len(grants) * len(seeds))
		gi := j / len(seeds) % len(grants)
		seed := seeds[j%len(seeds)]
		start := time.Now()
		w, err := o.loadWorkload(seed)
		if err != nil {
			return err
		}
		ucfg := withSeed(base, seed)

		// Reference: one unloaded serial run sets the interarrival scale.
		ref, err := runStrategy(w, ucfg, uniformDeliveries(w, wait), "DSE")
		if err != nil {
			return err
		}
		interarrival := time.Duration(float64(ref.ResponseTime) / loads[li])

		ucfg.MemoryBytes = grants[gi].bytes
		ucfg.SharedStreams = true
		srv, err := server.New(server.Config{
			Exec:      ucfg,
			MaxActive: maxActive,
		})
		if err != nil {
			return err
		}
		for i := 0; i < queries; i++ {
			if err := srv.Submit(server.Query{
				Label:      fmt.Sprintf("q%d", i),
				Workload:   w,
				Deliveries: uniformDeliveries(w, wait),
				ArriveAt:   time.Duration(i) * interarrival,
			}); err != nil {
				return err
			}
		}
		reports, _, err := srv.Run()
		if err != nil {
			return fmt.Errorf("load=%.2g %s: %w", loads[li], grants[gi].label, err)
		}
		var u unit
		for _, rep := range reports {
			u.latency += (rep.CompletedAt - rep.ArrivedAt).Seconds()
			u.firstTuple += (rep.Result.FirstTupleTime - rep.ArrivedAt).Seconds()
			u.admWait += rep.AdmissionWait.Seconds()
		}
		u.latency /= queries
		u.firstTuple /= queries
		u.admWait /= queries
		units[j] = u
		o.Stats.observe(cellResult{Result: reports[len(reports)-1].Result, Wall: time.Since(start)})
		return nil
	})
	if err != nil {
		return nil, err
	}
	for li, load := range loads {
		values := make([]float64, 0, 3*len(grants))
		for gi := range grants {
			var u unit
			for si := range seeds {
				v := units[(li*len(grants)+gi)*len(seeds)+si]
				u.latency += v.latency
				u.firstTuple += v.firstTuple
				u.admWait += v.admWait
			}
			reps := float64(len(seeds))
			values = append(values, u.latency/reps, u.firstTuple/reps, u.admWait/reps)
		}
		fig.addPoint(load, values...)
	}
	return fig, nil
}
