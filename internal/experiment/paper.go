package experiment

import (
	"fmt"
	"io"
	"time"

	"dqs/internal/exec"
	"dqs/internal/plan"
	"dqs/internal/workload"
)

// strategies in the paper's presentation order.
var strategies = []string{"SEQ", "MA", "DSE"}

// Table1 prints the simulation parameter table exactly as the paper reports
// it, from the live default configuration (so any drift would show).
func Table1(w io.Writer, cfg exec.Config) {
	p := cfg.Params
	fmt.Fprintln(w, "== Table 1: Simulation parameters ==")
	rows := [][2]string{
		{"CPU Speed", fmt.Sprintf("%.0f Mips", p.CPUMips)},
		{"Disk Latency - Seek Time - Transfer Rate", fmt.Sprintf("%v - %v - %.0f MB/s", p.DiskLatency, p.DiskSeek, p.DiskTransferBytesPerSec/1e6)},
		{"I/O Cache Size", fmt.Sprintf("%d pages", p.IOCachePages)},
		{"Perform an I/O", fmt.Sprintf("%d Instr.", p.IOInstr)},
		{"Number of Local Disks", fmt.Sprintf("%d", p.NumDisks)},
		{"Tuple Size - Page Size", fmt.Sprintf("%d bytes - %d Kb", p.TupleSize, p.PageSize/1024)},
		{"Move a Tuple", fmt.Sprintf("%d Inst.", p.MoveTupleInstr)},
		{"Search for Match in Hash Table", fmt.Sprintf("%d Inst.", p.HashSearchInstr)},
		{"Produce a Result Tuple", fmt.Sprintf("%d Inst.", p.ProduceResultInstr)},
		{"Network Bandwidth", fmt.Sprintf("%.0f Mbs", p.NetworkBandwidthBitsPerSec/1e6)},
		{"Send/Receive a Message", fmt.Sprintf("%d Inst.", p.MessageInstr)},
	}
	for _, r := range rows {
		fmt.Fprintf(w, "%-42s %s\n", r[0], r[1])
	}
	fmt.Fprintf(w, "%-42s %d pages (reproduction parameter)\n", "Message Payload", p.PagesPerMessage)
	fmt.Fprintln(w)
}

// Fig5 prints the experiment QEP and its pipeline-chain decomposition.
func Fig5(w io.Writer, o Options) error {
	wl, err := o.loadWorkload(o.seeds()[0])
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "== Figure 5: QEP used for the experiments ==")
	fmt.Fprint(w, plan.Render(wl.Root))
	dec, err := plan.Decompose(wl.Root)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "\nPipeline chains and blocking dependencies:")
	fmt.Fprint(w, dec.String())
	fmt.Fprintln(w)
	return nil
}

// slowdownPoints returns the x-axis of Figures 6 and 7: the total retrieval
// time of the slowed relation, in seconds. At 1/10 scale every point
// shrinks by 10 so the slowdown-to-baseline ratio matches the full-scale
// experiment.
func (o Options) slowdownPoints() []float64 {
	pts := []float64{0.1, 1.5, 3, 4.5, 6, 8, 10}
	if o.Small {
		for i := range pts {
			pts[i] /= 10
		}
	}
	return pts
}

// slowOne regenerates Figure 6 (relation A slowed) or Figure 7 (relation F
// slowed), depending on the relation argument. Every other wrapper delivers
// at the no-problem waiting time w_min. The x-axis is the total time to
// retrieve the slowed relation; series are the response times of the three
// strategies plus the analytic lower bound LWB.
func slowOne(o Options, relName string) (*Figure, error) {
	cfg := o.config()
	card := o.cardOf(relName)
	if card == 0 {
		return nil, fmt.Errorf("experiment: unknown relation %q", relName)
	}
	id := "Figure 6"
	if relName != "A" {
		id = fmt.Sprintf("Figure 7 (%s)", relName)
	}
	if relName == "F" {
		id = "Figure 7"
	}
	fig := newFigure(id,
		fmt.Sprintf("one slowed-down relation (%s)", relName),
		"retrieval(s)", "response time (s)",
		append(append([]string{}, strategies...), "LWB")...)
	type point struct {
		x      float64
		mk     deliveriesFn
		groups []seedGroup
	}
	sw := o.newSweep(fig.ID)
	var points []point
	seen := make(map[time.Duration]bool)
	for _, x := range o.slowdownPoints() {
		wSlow := time.Duration(x / float64(card) * float64(time.Second))
		if wSlow < cfg.InitialWaitEstimate {
			// The slowed relation cannot deliver faster than the
			// no-problem waiting time w_min (§5.1.3).
			wSlow = cfg.InitialWaitEstimate
			x = wSlow.Seconds() * float64(card)
		}
		if seen[wSlow] {
			continue
		}
		seen[wSlow] = true
		mk := func(w *workload.Workload) map[string]exec.Delivery {
			d := uniformDeliveries(w, cfg.InitialWaitEstimate)
			d[relName] = exec.Delivery{MeanWait: wSlow}
			return d
		}
		p := point{x: x, mk: mk}
		for _, s := range strategies {
			p.groups = append(p.groups, sw.add(cfg, s, mk, nil))
		}
		points = append(points, p)
	}
	if err := sw.run(); err != nil {
		return nil, fmt.Errorf("%s: %w", id, err)
	}
	for _, p := range points {
		values := make([]float64, 0, len(strategies)+1)
		for _, g := range p.groups {
			values = append(values, sw.meanResponse(g))
		}
		wl, err := o.loadWorkload(o.seeds()[0])
		if err != nil {
			return nil, err
		}
		lwb, err := lowerBound(wl, cfg, p.mk(wl))
		if err != nil {
			return nil, err
		}
		values = append(values, lwb.Seconds())
		fig.addPoint(p.x, values...)
	}
	return fig, nil
}

// Fig6 regenerates Figure 6 (A slowed).
func Fig6(o Options) (*Figure, error) { return slowOne(o, "A") }

// Fig7 regenerates Figure 7 (F slowed).
func Fig7(o Options) (*Figure, error) { return slowOne(o, "F") }

// wminPoints returns the x-axis of Figure 8: the uniform per-tuple waiting
// time of every wrapper, in microseconds.
func wminPoints() []float64 {
	return []float64{5, 10, 15, 20, 25, 30, 35, 40, 50, 60, 80, 100, 120}
}

// Fig8 regenerates Figure 8: the performance gain of DSE over SEQ as a
// function of the uniform waiting time w_min of all wrappers. The paper
// reports gains rising to ~70%, with an irregularity where the heuristic
// computes a poor total order.
func Fig8(o Options) (*Figure, error) {
	cfg := o.config()
	fig := newFigure("Figure 8", "several slowed-down relations (uniform w_min)",
		"w_min(us)", "value", "SEQ(s)", "DSE(s)", "gain(%)")
	sw := o.newSweep(fig.ID)
	type point struct {
		us       float64
		seq, dse seedGroup
	}
	var points []point
	for _, us := range wminPoints() {
		wait := time.Duration(us * float64(time.Microsecond))
		// The engine's prior knowledge tracks the actual uniform rate.
		c := cfg
		c.InitialWaitEstimate = wait
		mk := func(w *workload.Workload) map[string]exec.Delivery {
			return uniformDeliveries(w, wait)
		}
		points = append(points, point{
			us:  us,
			seq: sw.add(c, "SEQ", mk, nil),
			dse: sw.add(c, "DSE", mk, nil),
		})
	}
	if err := sw.run(); err != nil {
		return nil, err
	}
	for _, p := range points {
		seq, dse := sw.meanResponse(p.seq), sw.meanResponse(p.dse)
		gain := 0.0
		if seq > 0 {
			gain = (seq - dse) / seq * 100
		}
		fig.addPoint(p.us, seq, dse, gain)
	}
	return fig, nil
}

// PositionSweep runs the §5.2 side experiment: slow down each input
// relation in turn (same total retrieval time) and measure every strategy,
// showing how the slowed relation's position in the QEP changes the
// picture.
func PositionSweep(o Options, retrievalSeconds float64) (*Figure, error) {
	cfg := o.config()
	fig := newFigure("Position", fmt.Sprintf("slowed relation position (retrieval=%.1fs)", retrievalSeconds),
		"relation#", "response time (s)", strategies...)
	names := []string{"A", "B", "C", "D", "E", "F"}
	sw := o.newSweep(fig.ID)
	groups := make([][]seedGroup, len(names))
	for i, name := range names {
		name := name
		card := o.cardOf(name)
		wSlow := time.Duration(retrievalSeconds / float64(card) * float64(time.Second))
		mk := func(w *workload.Workload) map[string]exec.Delivery {
			d := uniformDeliveries(w, cfg.InitialWaitEstimate)
			d[name] = exec.Delivery{MeanWait: wSlow}
			return d
		}
		for _, s := range strategies {
			groups[i] = append(groups[i], sw.add(cfg, s, mk, nil))
		}
	}
	if err := sw.run(); err != nil {
		return nil, err
	}
	for i := range names {
		values := make([]float64, 0, len(strategies))
		for _, g := range groups[i] {
			values = append(values, sw.meanResponse(g))
		}
		fig.addPoint(float64(i), values...)
	}
	return fig, nil
}
