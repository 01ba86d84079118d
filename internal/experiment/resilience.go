package experiment

import (
	"fmt"
	"time"

	"dqs/internal/exec"
	"dqs/internal/fault"
	"dqs/internal/workload"
)

// Resilience sweeps SEQ, MA, SCR and DSE over a fault-intensity grid:
// level 0 is the fault-free baseline, each following level layers another
// failure class onto the same scenario — transient wrapper hiccups (a stall
// and a burst storm on C), a mid-stream disconnect with reconnect (D), and
// finally the permanent death of A with failover to a declared replica. The
// figure reports mean response time per strategy at each level; fault rows
// and durations scale with the workload so Small runs exercise the same
// story at 1/10 size.
func Resilience(o Options) (*Figure, error) {
	cfg := o.config()
	fig := newFigure("Resilience", "fault-intensity grid: SEQ vs MA vs SCR vs DSE under injected wrapper faults",
		"fault level#", "response time (s)", "SEQ", "MA", "SCR", "DSE")

	scale := 1.0
	if o.Small {
		scale = 0.1
	}
	dur := func(base time.Duration) time.Duration { return time.Duration(scale * float64(base)) }
	at := func(rel string, frac float64) int { return int(frac * float64(o.cardOf(rel))) }

	transient := fmt.Sprintf("C:stall@%d+%v;C:burst@%d+%dx300us",
		at("C", 0.10), dur(200*time.Millisecond), at("C", 0.30), at("C", 0.20))
	disconnect := transient + fmt.Sprintf(";D:drop@%d+%v", at("D", 0.50), dur(80*time.Millisecond))
	death := disconnect + fmt.Sprintf(";A:kill@%d;A:replica,connect=%v", at("A", 0.60), dur(10*time.Millisecond))

	levels := []struct {
		name string
		spec string
	}{
		{"none", ""},
		{"transient", transient},
		{"+disconnect", disconnect},
		{"+death/failover", death},
	}
	mk := func(w *workload.Workload) map[string]exec.Delivery {
		return uniformDeliveries(w, cfg.InitialWaitEstimate)
	}
	sw := o.newSweep(fig.ID)
	groups := make([][]seedGroup, len(levels))
	for i, lv := range levels {
		lcfg := cfg
		if lv.spec != "" {
			plan, err := fault.Parse(lv.spec)
			if err != nil {
				return nil, fmt.Errorf("experiment: resilience level %q: %w", lv.name, err)
			}
			lcfg.Faults = plan
		}
		for _, strat := range []string{"SEQ", "MA", "SCR", "DSE"} {
			groups[i] = append(groups[i], sw.add(lcfg, strat, mk, nil))
		}
	}
	if err := sw.run(); err != nil {
		return nil, err
	}
	for i := range levels {
		values := make([]float64, 0, 4)
		for _, g := range groups[i] {
			values = append(values, sw.meanResponse(g))
		}
		fig.addPoint(float64(i), values...)
	}
	return fig, nil
}
