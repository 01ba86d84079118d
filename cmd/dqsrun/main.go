// Command dqsrun executes one query under one strategy and reports the run
// summary, optionally with the full scheduling trace — planning phases,
// scheduling plans, degradations, stalls, fragment completions.
//
// Usage:
//
//	dqsrun [-strategy NAME] [-small] [-slow REL=RETRIEVAL_SECONDS]...
//	       [-wmin DUR] [-mem MB] [-bmt F] [-trace] [-gantt] [-seed N]
//	       [-stream]
//	       [-faults SPEC] [-fault-seed N] [-partial]
//	       [-list-strategies]
//
// Example: watch DSE degrade the blocked chains while wrapper A crawls,
// with a Gantt chart of fragment lifetimes:
//
//	dqsrun -strategy DSE -small -slow A=2 -gantt
//
// Example: kill wrapper D mid-stream and fail over to a replica, printing
// the recovery timeline:
//
//	dqsrun -strategy DSE -small -faults 'D:kill@700;D:replica,connect=10ms'
//
// Example: stream the answer as it is produced (insert-only, correct so
// far) under a tight grant, and watch when the first tuples land:
//
//	dqsrun -strategy DSE -small -slow A=2 -mem 1 -stream
//
// The -strategy values come from the scheduling-policy registry, so the
// flag's help text always lists exactly the runnable strategies.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
	"time"

	"dqs"
	"dqs/internal/sim"
	"dqs/internal/traceview"
)

type slowFlags map[string]float64

// maxSlowSeconds bounds a -slow retrieval time (some thirty years): much
// more overflows the virtual clock's int64 nanoseconds.
const maxSlowSeconds = 1e9

func (s slowFlags) String() string { return fmt.Sprint(map[string]float64(s)) }

func (s slowFlags) Set(v string) error {
	parts := strings.SplitN(v, "=", 2)
	if len(parts) != 2 {
		return fmt.Errorf("want REL=SECONDS, got %q", v)
	}
	secs, err := strconv.ParseFloat(parts[1], 64)
	if err != nil || !(secs >= 0 && secs <= maxSlowSeconds) { // the negated form also refuses NaN
		return fmt.Errorf("-slow wants retrieval seconds in [0, %g], got %q", maxSlowSeconds, v)
	}
	s[parts[0]] = secs
	return nil
}

func main() {
	slow := slowFlags{}
	names := make([]string, len(dqs.AllStrategies()))
	for i, s := range dqs.AllStrategies() {
		names[i] = string(s)
	}
	var (
		strategy  = flag.String("strategy", "DSE", "execution strategy: "+strings.Join(names, ", "))
		small     = flag.Bool("small", false, "1/10-scale workload")
		wmin      = flag.Duration("wmin", 20*time.Microsecond, "baseline per-tuple waiting time of every wrapper")
		memMB     = flag.Float64("mem", 64, "memory grant in MB")
		bmt       = flag.Float64("bmt", 1, "benefit materialization threshold")
		trace     = flag.Bool("trace", false, "dump the execution trace")
		gantt     = flag.Bool("gantt", false, "draw a Gantt chart of fragment lifetimes")
		seed      = flag.Int64("seed", 1, "random seed (data and delays)")
		stream    = flag.Bool("stream", false, "stream result tuples as they are produced and print the output ramp")
		faults    = flag.String("faults", "", "fault scenario, e.g. 'C:burst@100+500x300us;D:kill@5000;D:replica,connect=50ms'")
		faultSeed = flag.Int64("fault-seed", 1, "random seed of the fault scenario's timing draws")
		partial   = flag.Bool("partial", false, "allow partial results when a wrapper dies with no replica")
		list      = flag.Bool("list-strategies", false, "list the registered strategies and exit")
	)
	flag.Var(slow, "slow", "slow one relation: REL=RETRIEVAL_SECONDS (repeatable)")
	flag.Parse()
	if *list {
		listStrategies(os.Stdout)
		return
	}
	if err := run(*strategy, *small, *wmin, *memMB, *bmt, *trace, *gantt, *seed, *stream, *faults, *faultSeed, *partial, slow); err != nil {
		fmt.Fprintln(os.Stderr, "dqsrun:", err)
		os.Exit(1)
	}
}

// memBytes converts the -mem flag to a byte grant, refusing NaN and what an
// int64 byte count cannot hold.
func memBytes(mb float64) (int64, error) {
	if b := mb * (1 << 20); b >= 1 && b < math.MaxInt64 {
		return int64(b), nil
	}
	return 0, fmt.Errorf("-mem must be a positive number of MB below 2^43, got %v", mb)
}

// listStrategies prints every registered strategy with its description
// (-list-strategies).
func listStrategies(w io.Writer) {
	infos := dqs.StrategyList()
	width := 0
	for _, in := range infos {
		if len(in.Name) > width {
			width = len(in.Name)
		}
	}
	for _, in := range infos {
		fmt.Fprintf(w, "%-*s  %s\n", width, in.Name, in.Description)
	}
}

func run(strategy string, small bool, wmin time.Duration, memMB, bmt float64, trace, gantt bool, seed int64, stream bool, faults string, faultSeed int64, partial bool, slow slowFlags) error {
	mem, err := memBytes(memMB)
	if err != nil {
		return err
	}
	var w *dqs.Workload
	if small {
		w, err = dqs.Fig5Small(seed)
	} else {
		w, err = dqs.Fig5(seed)
	}
	if err != nil {
		return err
	}
	cfg := dqs.DefaultConfig()
	cfg.Seed = seed
	cfg.MemoryBytes = mem
	cfg.BMT = bmt
	cfg.InitialWaitEstimate = wmin
	cfg.FaultSeed = faultSeed
	cfg.PartialResults = partial
	var streamed int64
	if stream {
		cfg.Stream = dqs.SinkFunc(func(at time.Duration, tup dqs.Tuple) {
			streamed++
			// Print the head of the stream and log2-spaced later tuples; a
			// full result dump would swamp the terminal.
			if streamed <= 4 || streamed&(streamed-1) == 0 {
				fmt.Printf("stream: tuple %-8d at %.6fs  %v\n", streamed, at.Seconds(), tup)
			}
		})
	}
	var tr *sim.Trace
	if trace || gantt || faults != "" {
		tr = &sim.Trace{}
		cfg.Trace = tr
	}
	if faults != "" {
		plan, err := dqs.ParseFaults(faults)
		if err != nil {
			return err
		}
		for _, rel := range plan.Sources() {
			card, err := dqs.Cardinality(w, rel)
			if err != nil {
				return fmt.Errorf("-faults: %w", err)
			}
			// A clause strikes as its row is produced; one at or past the
			// relation's end would silently never fire.
			for _, c := range plan.ClausesFor(rel) {
				if c.Row >= card {
					return fmt.Errorf("-faults: %s:%v@%d can never strike: %s has %d rows", rel, c.Kind, c.Row, rel, card)
				}
			}
		}
		cfg.Faults = plan
	}
	del := dqs.UniformDeliveries(w, wmin)
	for rel, secs := range slow {
		card, err := dqs.Cardinality(w, rel)
		if err != nil {
			return err
		}
		del[rel] = dqs.Delivery{MeanWait: time.Duration(secs / float64(card) * float64(time.Second))}
	}
	spec := dqs.RunSpec{Workload: w, Config: cfg, Strategy: dqs.Strategy(strategy), Deliveries: del}
	lwb, err := dqs.LowerBound(spec)
	if err != nil {
		return err
	}
	res, err := dqs.Run(spec)
	if err != nil {
		return err
	}
	if trace {
		if err := tr.Dump(os.Stdout); err != nil {
			return err
		}
		fmt.Println()
	}
	if gantt {
		if err := traceview.GanttFor(os.Stdout, tr, 72, res.Strategy); err != nil {
			return err
		}
		fmt.Println()
	}
	if faults != "" {
		if err := traceview.FaultTimeline(os.Stdout, tr); err != nil {
			return err
		}
		fmt.Println()
	}
	if stream {
		fmt.Printf("stream: %d tuples delivered, first at %.3fs\n", streamed, res.FirstTupleTime.Seconds())
		if err := traceview.TupleTimeline(os.Stdout, res.TupleTimeline, res.ResponseTime, 64); err != nil {
			return err
		}
		fmt.Println()
	}
	fmt.Println(res)
	if len(res.DegradedFragments) > 0 {
		fmt.Printf("partial result: degraded fragments %v\n", res.DegradedFragments)
	}
	fmt.Printf("LWB=%.3fs  total-work=%.3fs  first-tuple=%.3fs  peak-mem=%.1fMB  replans=%d degradations=%d timeouts=%d mem-repairs=%d\n",
		lwb.Seconds(), res.TotalWork().Seconds(), res.FirstTupleTime.Seconds(), float64(res.PeakMemBytes)/(1<<20),
		res.Replans, res.Degradations, res.Timeouts, res.MemRepairs)
	return nil
}
