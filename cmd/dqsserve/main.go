// Command dqsserve runs the multi-query mediator service on a synthetic
// batch: n queries arriving at a fixed interarrival gap, admitted under a
// max-active cap and a queueing discipline, executed on one shared mediator
// (shared memory grant, shared plan caches, optionally shared wrapper
// streams, one global scheduling plan). It prints a per-query
// admission/completion table and the aggregate service statistics.
//
// Usage:
//
//	dqsserve [-n N] [-small] [-seed N]
//	         [-max-active N] [-discipline fifo|priority]
//	         [-fair global|roundrobin|weighted] [-interarrival DUR]
//	         [-timeout DUR] [-wmin DUR] [-mem MB]
//	         [-shared-streams] [-stream]
//
// Example: four small queries through a two-slot server — the later two
// wait for a slot, then join the running plan:
//
//	dqsserve -n 4 -small -max-active 2
//
// Example: a server sharing one memory grant and the physical wrapper
// streams across three copies of the same query, round-robin planning
// fairness:
//
//	dqsserve -n 3 -small -shared-streams -fair roundrobin
//
// Example: per-query timeouts cancelling the stragglers of a loaded
// one-slot server:
//
//	dqsserve -n 4 -small -max-active 1 -timeout 30ms
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"time"

	"dqs"
	"dqs/internal/sim"
)

type options struct {
	n             int
	small         bool
	seed          int64
	maxActive     int
	discipline    string
	fair          string
	interarrival  time.Duration
	timeout       time.Duration
	wmin          time.Duration
	memMB         float64
	sharedStreams bool
	stream        bool
}

func main() {
	var o options
	flag.IntVar(&o.n, "n", 4, "number of queries in the batch")
	flag.BoolVar(&o.small, "small", false, "1/10-scale workload")
	flag.Int64Var(&o.seed, "seed", 1, "random seed (query i draws seed+i unless -shared-streams)")
	flag.IntVar(&o.maxActive, "max-active", 2, "admission cap on concurrently executing queries (0 = unbounded)")
	flag.StringVar(&o.discipline, "discipline", "fifo", "admission queue discipline: fifo or priority (priority ranks later submissions higher, demonstrating queue jumps)")
	flag.StringVar(&o.fair, "fair", "global", "cross-query fairness: global, roundrobin or weighted")
	flag.DurationVar(&o.interarrival, "interarrival", 2*time.Millisecond, "gap between query arrivals (query i arrives at i*gap)")
	flag.DurationVar(&o.timeout, "timeout", 0, "per-query execution timeout (0 = none); timed-out queries are cancelled at a planning point")
	flag.DurationVar(&o.wmin, "wmin", 20*time.Microsecond, "baseline per-tuple waiting time of every wrapper")
	flag.Float64Var(&o.memMB, "mem", 64, "memory grant in MB, shared by every query")
	flag.BoolVar(&o.sharedStreams, "shared-streams", false, "share physical wrapper streams across queries (all queries run the same workload instance)")
	flag.BoolVar(&o.stream, "stream", false, "attach per-query sinks and report first-tuple latencies from them")
	flag.Parse()
	if err := run(os.Stdout, o); err != nil {
		fmt.Fprintln(os.Stderr, "dqsserve:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, o options) error {
	if o.n < 1 {
		return fmt.Errorf("-n must be at least 1, got %d", o.n)
	}
	if o.maxActive < 0 {
		return fmt.Errorf("-max-active must be non-negative (0 = unbounded), got %d", o.maxActive)
	}
	if o.timeout < 0 {
		return fmt.Errorf("-timeout must be non-negative (0 = none), got %v", o.timeout)
	}
	if o.interarrival < 0 {
		return fmt.Errorf("-interarrival must be non-negative, got %v", o.interarrival)
	}
	// The last arrival, (n-1)*gap, is a waiting time: sim.MaxWait bounds it.
	if o.interarrival > 0 && int64(o.n-1) > int64(sim.MaxWait/o.interarrival) {
		return fmt.Errorf("-n %d queries at -interarrival %v arrive past %v", o.n, o.interarrival, sim.MaxWait)
	}
	discipline, err := dqs.ParseServerDiscipline(o.discipline)
	if err != nil {
		return err
	}
	fair, err := dqs.ParseServerFairness(o.fair)
	if err != nil {
		return err
	}
	mem, err := memBytes(o.memMB)
	if err != nil {
		return err
	}
	cfg := dqs.DefaultConfig()
	cfg.Seed = o.seed
	cfg.MemoryBytes = mem
	cfg.InitialWaitEstimate = o.wmin
	cfg.SharedStreams = o.sharedStreams
	srv, err := dqs.NewServer(dqs.ServerConfig{
		Exec:       cfg,
		MaxActive:  o.maxActive,
		Discipline: discipline,
		Fairness:   fair,
	})
	if err != nil {
		return err
	}

	load := func(seed int64) (*dqs.Workload, error) {
		if o.small {
			return dqs.Fig5Small(seed)
		}
		return dqs.Fig5(seed)
	}
	var shared *dqs.Workload
	if o.sharedStreams {
		// Stream sharing keys on the table objects, so every query must
		// scan the same workload instance.
		if shared, err = load(o.seed); err != nil {
			return err
		}
	}
	firstTuple := make([]time.Duration, o.n)
	for i := 0; i < o.n; i++ {
		wl := shared
		if wl == nil {
			if wl, err = load(o.seed + int64(i)); err != nil {
				return err
			}
		}
		q := dqs.ServerQuery{
			Label:      fmt.Sprintf("q%d", i),
			Workload:   wl,
			Deliveries: dqs.UniformDeliveries(wl, o.wmin),
			ArriveAt:   time.Duration(i) * o.interarrival,
			Priority:   i, // later submissions rank higher under -discipline priority
			Timeout:    o.timeout,
		}
		if o.stream {
			i := i
			q.Sink = dqs.SinkFunc(func(at time.Duration, _ dqs.Tuple) {
				if firstTuple[i] == 0 {
					firstTuple[i] = at
				}
			})
		}
		if err := srv.Submit(q); err != nil {
			return err
		}
	}
	reports, stats, err := srv.Run()
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "%-6s %10s %10s %10s %10s %10s %8s %s\n",
		"query", "arrive", "admitted", "wait", "completed", "response", "rows", "status")
	for i, rep := range reports {
		status := "ok"
		if rep.Cancelled {
			status = "cancelled"
		}
		fmt.Fprintf(w, "%-6s %9.3fms %9.3fms %9.3fms %9.3fms %9.3fms %8d %s\n",
			rep.Label, ms(rep.ArrivedAt), ms(rep.AdmittedAt), ms(rep.AdmissionWait),
			ms(rep.CompletedAt), ms(rep.Result.ResponseTime), rep.Result.OutputRows, status)
		if o.stream && firstTuple[i] > 0 {
			fmt.Fprintf(w, "%-6s first tuple streamed at %.3fms\n", "", ms(firstTuple[i]))
		}
	}
	fmt.Fprintf(w, "served %d queries (%d cancelled): makespan=%.3fms peak-active=%d peak-queued=%d total-admission-wait=%.3fms\n",
		stats.Queries, stats.Cancelled, ms(stats.Makespan), stats.PeakActive, stats.PeakQueued, ms(stats.TotalAdmissionWait))
	if o.sharedStreams {
		fmt.Fprintf(w, "shared %d wrapper streams serving %d query taps\n", stats.SharedStreams, stats.StreamTaps)
	}
	return nil
}

// memBytes converts the -mem flag to a byte grant, refusing NaN and what an
// int64 byte count cannot hold.
func memBytes(mb float64) (int64, error) {
	if b := mb * (1 << 20); b >= 1 && b < math.MaxInt64 {
		return int64(b), nil
	}
	return 0, fmt.Errorf("-mem must be a positive number of MB below 2^43, got %v", mb)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
