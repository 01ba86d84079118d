// Command dqsbench regenerates every table and figure of the paper's
// evaluation, plus the reproduction's ablation studies.
//
// Usage:
//
//	dqsbench [-exp all|table1|fig5|fig6|fig7|fig8|position|resilience|multiquery|serverload|firsttuple|ablations] \
//	         [-reps N] [-parallel N] \
//	         [-small] [-csv] [-chart] \
//	         [-faults SPEC] [-fault-seed N] \
//	         [-cpuprofile FILE] [-memprofile FILE]
//
// Output is the same rows/series the paper plots; -csv additionally emits
// machine-readable data, and -chart draws crude ASCII charts of the shapes.
//
// Every sweep is a grid of independent deterministic simulator runs
// (cells); -parallel bounds the worker pool executing them (default:
// GOMAXPROCS). Each simulation is serial, so -parallel changes wall-clock
// time only — the reported virtual times, and therefore the printed figures,
// are byte-identical at any setting. A per-cell profiling summary goes to
// stderr.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"dqs/internal/experiment"
	"dqs/internal/fault"
	"dqs/internal/workload"
)

// figures lists the experiments that print one figure, in run order after
// table1 and fig5; -exp ablations runs the ones named "ablation-…".
var figures = []struct {
	name string
	run  func(experiment.Options) (*experiment.Figure, error)
}{
	{"fig6", experiment.Fig6},
	{"fig7", experiment.Fig7},
	{"fig8", experiment.Fig8},
	{"position", func(o experiment.Options) (*experiment.Figure, error) {
		retrieval := 6.0
		if o.Small {
			retrieval = 0.6
		}
		return experiment.PositionSweep(o, retrieval)
	}},
	{"delays", experiment.DelayClasses},
	{"resilience", experiment.Resilience},
	{"multiquery", experiment.MultiQuery},
	{"serverload", experiment.ServerLoad},
	{"star", experiment.StarSweep},
	{"firsttuple", experiment.FirstTupleLatency},
	{"ablation-bmt", experiment.AblationBMT},
	{"ablation-batch", experiment.AblationBatch},
	{"ablation-queue", experiment.AblationQueue},
	{"ablation-message", experiment.AblationMessage},
	{"ablation-skew", experiment.AblationSkew},
	{"ablation-memory", experiment.AblationMemory},
}

// experimentNames lists every value -exp accepts, in run order; the
// unknown-experiment error echoes it so callers see what is available.
func experimentNames() []string {
	names := []string{"all", "table1", "fig5"}
	for _, f := range figures {
		if strings.HasPrefix(f.name, "ablation-") && !slices.Contains(names, "ablations") {
			names = append(names, "ablations")
		}
		names = append(names, f.name)
	}
	return names
}

func errUnknownExperiment(exp string) error {
	return fmt.Errorf("unknown experiment %q (available: %s)",
		exp, strings.Join(experimentNames(), ", "))
}

func main() {
	var (
		exp        = flag.String("exp", "all", "experiment to run: "+strings.Join(experimentNames(), ", "))
		reps       = flag.Int("reps", 3, "measurement repetitions (paper: 3)")
		parallel   = flag.Int("parallel", runtime.GOMAXPROCS(0), "concurrent simulator runs; figure output is identical at any setting")
		small      = flag.Bool("small", false, "run at 1/10 scale (fast)")
		csv        = flag.Bool("csv", false, "also print CSV data")
		chart      = flag.Bool("chart", false, "also draw ASCII charts")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the sweep to this file (go tool pprof)")
		memprofile = flag.String("memprofile", "", "write an allocation profile taken after the sweep to this file")
		faults     = flag.String("faults", "", "inject a fault scenario into every run, e.g. 'D:drop@5000+2s'")
		faultSeed  = flag.Int64("fault-seed", 1, "random seed of the fault scenario's timing draws")
	)
	flag.Parse()
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dqsbench:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "dqsbench: start cpu profile:", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	err := run(*exp, *reps, *parallel, *small, *csv, *chart, *faults, *faultSeed)
	if err == nil && *memprofile != "" {
		err = writeMemProfile(*memprofile)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "dqsbench:", err)
		if *cpuprofile != "" {
			pprof.StopCPUProfile()
		}
		os.Exit(1)
	}
}

// writeMemProfile dumps the allocation profile (every allocation since
// start, not just live objects) so allocation regressions in the execution
// core show up even though the sweeps release everything they build.
func writeMemProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	runtime.GC() // flush the final allocation stats
	return pprof.Lookup("allocs").WriteTo(f, 0)
}

func run(exp string, reps, parallel int, small, csv, chart bool, faults string, faultSeed int64) error {
	if reps < 1 {
		return fmt.Errorf("-reps must be at least 1, got %d", reps)
	}
	if parallel < 1 {
		return fmt.Errorf("-parallel must be at least 1, got %d", parallel)
	}
	o := experiment.DefaultOptions()
	o.Small = small
	o.Parallel = parallel
	o.Stats = &experiment.RunStats{}
	o.Seeds = o.Seeds[:0]
	for i := 1; i <= reps; i++ {
		o.Seeds = append(o.Seeds, int64(i))
	}
	cfg := o.ExecConfig()
	if faults != "" {
		plan, err := fault.Parse(faults)
		if err != nil {
			return err
		}
		if err := checkFaults(plan, exp, small); err != nil {
			return err
		}
		cfg.Faults = plan
		cfg.FaultSeed = faultSeed
	}
	o.Config = &cfg
	out := os.Stdout

	matched := false
	want := func(name string) bool {
		ok := exp == "all" || exp == name ||
			exp == "ablations" && strings.HasPrefix(name, "ablation-")
		matched = matched || ok
		return ok
	}

	start := time.Now()
	if want("table1") {
		experiment.Table1(out, o.ExecConfig())
	}
	if want("fig5") {
		if err := experiment.Fig5(out, o); err != nil {
			return err
		}
	}
	for _, f := range figures {
		if !want(f.name) {
			continue
		}
		fig, err := f.run(o)
		if err != nil {
			return fmt.Errorf("%s: %w", f.name, err)
		}
		fig.Print(out)
		if chart {
			fig.Chart(out, 64, 16)
		}
		if csv {
			fmt.Fprintln(out, fig.CSV())
		}
	}
	if !matched {
		return errUnknownExperiment(exp)
	}
	fmt.Fprintf(out, "done in %v\n", time.Since(start).Round(time.Millisecond))
	if o.Stats.Cells() > 0 {
		fmt.Fprintf(os.Stderr, "harness: workers=%d %s\n", o.Workers(), o.Stats.Summary())
	}
	return nil
}

// checkFaults refuses a -faults clause that could never strike in the
// selected experiments: one naming a relation none of their workloads
// scans, or one at or past its relation's last row (a clause strikes as its
// row is produced).
func checkFaults(plan *fault.Plan, exp string, small bool) error {
	cards := scannedCards(exp, small)
	unscanned := func(clause, rel string) error {
		return fmt.Errorf("-faults: %s can never strike: no workload of -exp %s scans %q", clause, exp, rel)
	}
	for _, c := range plan.Clauses {
		clause := (&fault.Plan{Clauses: []fault.Clause{c}}).String()
		card, ok := cards[c.Source]
		if !ok {
			return unscanned(clause, c.Source)
		}
		if c.Row >= card {
			return fmt.Errorf("-faults: %s can never strike: %s has %d rows", clause, c.Source, card)
		}
	}
	for _, r := range plan.Replicas {
		if _, ok := cards[r.Source]; !ok {
			return unscanned((&fault.Plan{Replicas: []fault.Replica{r}}).String(), r.Source)
		}
	}
	return nil
}

// scannedCards maps every relation the workloads of -exp scan to its
// cardinality at the selected scale: the Figure-5 relations for every
// experiment, plus the star schema's for star and all.
func scannedCards(exp string, small bool) map[string]int {
	cards := map[string]int{
		"A": workload.Fig5CardA, "B": workload.Fig5CardB, "C": workload.Fig5CardC,
		"D": workload.Fig5CardD, "E": workload.Fig5CardE, "F": workload.Fig5CardF,
	}
	if small {
		for rel := range cards {
			cards[rel] /= 10 // as workload.Fig5Small scales them
		}
	}
	if exp == "all" || exp == "star" {
		spec := workload.DefaultStarSpec()
		if small {
			spec = workload.SmallStarSpec()
		}
		cards["FACT"] = spec.FactRows
		for i := 0; i < spec.Dimensions; i++ {
			cards[fmt.Sprintf("DIM%d", i)] = spec.DimRows
		}
	}
	return cards
}
