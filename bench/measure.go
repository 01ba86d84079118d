package main

import (
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// runConfig is one invocation of the contract command.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	outDir   string // where the traced pass writes trace-<workload>.json
}

// runReport is everything one run measured. The contract's last stdout line
// is a subset; -json writes all of it.
type runReport struct {
	Workload  string             `json:"workload"`
	Trace     bool               `json:"trace"`
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Host      hostInfo           `json:"host"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	TimedOps  int                `json:"timed_ops"`
	WarmupOps int                `json:"warmup_ops_discarded"`
	WarmupS   float64            `json:"warmup_seconds_discarded"`
	Digest    string             `json:"outcome_digest"`
	Metrics   map[string]float64 `json:"metrics"`
	Errors    []string           `json:"errors,omitempty"`
}

const (
	setupRepeats  = 5
	maxErrorsKept = 5
)

// pass is one closed-loop run of ops: a single client issues the next op
// when the previous one returns.
type pass struct {
	walls     []float64 // host ms per timed op
	wallPoint []int     // the point each timed op ran
	cycle     []outcome // first outcome of every point
	attempted int
	failed    int
	errors    []string
	warmOps   int
	warmS     float64
	timedS    float64
	allocMB   float64 // per timed op
	allocs    float64 // per timed op
}

func (p *pass) fail(err error) {
	p.failed++
	if len(p.errors) < maxErrorsKept {
		p.errors = append(p.errors, err.Error())
	}
}

// runPass drives w for the given duration, the first warm of it discarded
// as warm-up, and for at least one full cycle of points. Every op — warm-up
// included — is checked: against the reference answer (inside run), against
// the first outcome of its point, and, in the traced pass, against the
// untraced pass's outcome (ref). A point whose every op failed leaves an
// empty outcome in the cycle.
func runPass(w workload, dur, warm time.Duration, tr *tracer, ref []outcome) *pass {
	p := &pass{cycle: make([]outcome, w.points())}
	have := make([]bool, w.points())
	var m0, m1 runtime.MemStats
	var timedStart time.Time
	timing := false
	start := time.Now()
	for i := 0; ; i++ {
		elapsed := time.Since(start)
		if elapsed >= dur && i >= w.points() && len(p.walls) > 0 {
			break
		}
		if !timing && elapsed >= warm {
			timing = true
			p.warmOps, p.warmS = i, elapsed.Seconds()
			runtime.ReadMemStats(&m0)
			timedStart = time.Now()
		}
		pt := i % w.points()
		if tr != nil {
			tr.op = i
		}
		root := tr.begin("op")
		t0 := time.Now()
		out, err := w.run(pt, tr)
		wall := time.Since(t0)
		check := tr.begin("bench.check")
		p.attempted++
		switch {
		case err != nil:
			p.fail(err)
		case have[pt] && !out.equal(p.cycle[pt]):
			p.fail(fmt.Errorf("point %d: outcome differs from its first run", pt))
		case ref != nil && !out.equal(ref[pt]):
			p.fail(fmt.Errorf("point %d: traced outcome differs from the untraced one", pt))
		}
		if err == nil && !have[pt] {
			have[pt], p.cycle[pt] = true, out
		}
		tr.end(check)
		tr.end(root)
		if timing {
			p.walls = append(p.walls, float64(wall)/float64(time.Millisecond))
			p.wallPoint = append(p.wallPoint, pt)
		}
	}
	runtime.ReadMemStats(&m1)
	p.timedS = time.Since(timedStart).Seconds()
	n := float64(len(p.walls))
	p.allocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20) / n
	p.allocs = float64(m1.Mallocs-m0.Mallocs) / n
	return p
}

// rawOpsPerS is the throughput the closed-loop client saw, host interference
// and all.
func (p *pass) rawOpsPerS() float64 { return float64(len(p.walls)) / p.timedS }

// fastQuantile is the quantile of an op kind's repeats that stands for its
// contention-free cost.
const fastQuantile = 0.10

// opWallMS returns the contention-free host time of an op: for every kind of
// op the pass timed, the 10th percentile of its repeats; over the kinds, the
// mean. The reference hosts are small shared guests on which neighbours slow
// a varying share of the ops — at times most of them — by up to half.
// Interference only ever adds time, so the lower edge of a kind's repeats
// moves least: between back-to-back runs on a busy host the 5th-10th
// percentile moved 1-15% where the median moved 5-25%, the 90th percentile
// 20-30% and the fastest of a point's three or four repeats 25%. Kinds keep
// the cheap ops of a mixed cycle from standing for the dear ones.
func (p *pass) opWallMS(w workload) float64 {
	byKind := map[int][]float64{}
	for i, pt := range p.wallPoint {
		k := w.kind(pt)
		byKind[k] = append(byKind[k], p.walls[i])
	}
	var sum float64
	for _, walls := range byKind {
		sum += percentile(walls, fastQuantile)
	}
	return sum / float64(len(byKind))
}

// warmup returns the discarded share of a pass: 5% of it, at least 2 s, but
// never more than a quarter (so second-long smoke runs still measure).
func warmup(dur time.Duration) time.Duration {
	w := dur / 20
	if w < 2*time.Second {
		w = 2 * time.Second
	}
	if w > dur/4 {
		w = dur / 4
	}
	return w
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// timedSetup sets the workload up setupRepeats times and returns the fastest:
// one set-up of a small workload takes tens of milliseconds, too short to
// read once, and like an op it is reported at its contention-free cost.
func timedSetup(w workload, seed int64, host hostInfo) (float64, error) {
	best := math.Inf(1)
	for i := 0; i < setupRepeats; i++ {
		runtime.GC()
		t0 := time.Now()
		if err := w.setup(seed, host); err != nil {
			return 0, err
		}
		best = math.Min(best, time.Since(t0).Seconds())
	}
	return best, nil
}

// runWorkload is one run of the contract command: set-up, then either the
// untraced pass (end-to-end metrics) or the traced one (per-layer metrics).
func runWorkload(rc runConfig, host hostInfo) (*runReport, error) {
	w, err := newWorkload(rc.workload)
	if err != nil {
		return nil, err
	}
	rep := &runReport{Workload: rc.workload, Trace: rc.trace, Seed: rc.seed, Seconds: rc.seconds,
		Host: host, Metrics: map[string]float64{}}
	setupS, err := timedSetup(w, rc.seed, host)
	if err != nil {
		return nil, fmt.Errorf("bench: %s set-up: %w", rc.workload, err)
	}
	runtime.GC()
	dur := time.Duration(rc.seconds * float64(time.Second))

	var p *pass
	if !rc.trace {
		p = runPass(w, dur, warmup(dur), nil, nil)
		endToEnd(w, p, setupS, rep.Metrics)
	} else {
		// The traced pass runs a quarter of the ops, after an untraced
		// quarter that gives it the outcomes to equal and the throughput to
		// compare with; the rest of the time goes to re-runs and replays.
		quarter := dur / 4
		p1 := runPass(w, quarter, warmup(quarter), nil, nil)
		tr := newTracer()
		p = runPass(w, quarter, warmup(quarter), tr, p1.cycle)
		if p1.failed+p.failed == 0 {
			// The ledger is only worth reading off a correct pass.
			m := rep.Metrics
			m["bench.raw_ops_per_s"] = p1.rawOpsPerS()
			m["bench.raw_wall_ms_p50"] = percentile(p1.walls, 0.5)
			m["bench.raw_wall_ms_p90"] = percentile(p1.walls, 0.9)
			m["bench.trace_overhead_pct"] = 100 * (p.opWallMS(w) - p1.opWallMS(w)) / p1.opWallMS(w)
			traceMetrics(tr, p, m)
			exactCounts(p.cycle, m)
			if err := w.layer(p.cycle, dur/2, m); err != nil {
				p.fail(err)
				p.attempted++
			}
		}
		p.attempted += p1.attempted
		p.failed += p1.failed
		p.errors = append(p1.errors, p.errors...)
		if rc.outDir != "" {
			path := filepath.Join(rc.outDir, "trace-"+rc.workload+".json")
			if err := tr.write(path, rc.workload, host); err != nil {
				return nil, fmt.Errorf("bench: write trace: %w", err)
			}
		}
	}
	rep.Attempted, rep.Failed, rep.Errors = p.attempted, p.failed, p.errors
	rep.Correct = p.failed == 0
	rep.TimedOps, rep.WarmupOps, rep.WarmupS = len(p.walls), p.warmOps, p.warmS
	rep.Digest = digest(p.cycle)
	return rep, nil
}

// endToEnd fills the metrics a user of the system sees. The virtual-time
// ones are means over the first outcome of every point — one full cycle, so
// they are a function of the seed alone, not of how many ops the host fitted
// into the run.
func endToEnd(w workload, p *pass, setupS float64, m map[string]float64) {
	m["setup_s"] = setupS
	wall := p.opWallMS(w)
	m["op_wall_ms_p10"] = wall
	m["ops_per_s"] = 1000 / wall
	m["alloc_mb_per_op"] = p.allocMB
	m["allocs_per_op"] = p.allocs
	m["peak_rss_mb"] = peakRSSMB()
	var resp, first []float64
	for _, o := range p.cycle {
		r, f := o.virt()
		resp = append(resp, r...)
		first = append(first, f...)
	}
	m["virt_response_s"] = mean(resp)
	m["virt_first_tuple_ms"] = mean(first)
}

// traceMetrics turns the traced pass's spans into the per-layer ledger: per
// op means of each layer's time, its calls, and its share of the op wall.
// Wrapper resumes are reported net of the timer: a timed call costs about one
// clock pair, half of it inside the measured interval (and scaled up with
// it) and half in the enclosing execution phase.
func traceMetrics(tr *tracer, p *pass, m map[string]float64) {
	st := tr.summarize(p.warmOps, p.attempted)
	get := func(name string) *layerStat {
		if s := st[name]; s != nil {
			return s
		}
		return &layerStat{}
	}
	ops := float64(p.attempted - p.warmOps)
	us := func(ns float64) float64 { return ns / 1e3 / ops }
	resume := get("source.resume")
	pair := float64(clockPairCost())
	timer := float64(resume.count) / resumeSample * pair // wall spent in the timer
	resumeNet := resume.incl - float64(resume.count)*pair/2
	opWall := get("op").incl - timer
	share := func(ns float64) float64 { return ns / opWall }

	m["exec.assemble_us_p50"] = percentile(get("exec.assemble").durs, 0.5) / 1e3
	m["exec.assemble_share"] = share(get("exec.assemble").self)
	m["core.step_calls"] = float64(get("core.step").count) / ops
	m["core.step_us_total"] = us(get("core.step").incl - timer)
	m["core.plan_calls"] = float64(get("core.plan").count) / ops
	m["core.plan_us_total"] = us(get("core.plan").incl)
	m["core.plan_us_p50"] = percentile(get("core.plan").durs, 0.5) / 1e3
	m["core.on_event_us_total"] = us(get("core.on_event").incl)
	m["core.plan_share"] = share(get("core.plan").incl)
	m["source.resume_calls"] = float64(resume.count) / ops
	m["source.resume_us_total"] = us(resumeNet)
	m["source.resume_share"] = share(resumeNet)
	phase := get("exec.phase").self + resume.incl - resumeNet - timer
	m["exec.phase_us_total"] = us(phase)
	m["exec.phase_share"] = share(phase)
	m["server.submit_us"] = us(get("server.submit").incl)
	m["server.run_ms_p50"] = percentile(get("server.run").durs, 0.5) / 1e6

	// The ledger must account for the op: self times of the layer spans
	// (everything but the op root's own glue) over the traced op wall.
	var layers float64
	for name, s := range st {
		if name != "op" {
			layers += s.self
		}
	}
	m["bench.trace_coverage_pct"] = 100 * layers / get("op").incl
}

// exactCounts sums the simulator's own counters over one cycle of outcomes.
// They are a function of the seed alone: a host-only change must leave every
// one of them identical.
func exactCounts(cycle []outcome, m map[string]float64) {
	var hits, misses float64
	for _, o := range cycle {
		// Scheduler counters are mediator-wide: every query of a fused
		// batch reports the same totals, so they are taken once per op.
		shared := o.cancelled != nil
		for i, r := range o.results {
			m["mem.peak_bytes"] = math.Max(m["mem.peak_bytes"], float64(r.PeakMemBytes))
			if !shared || i == 0 {
				m["core.replans"] += float64(r.Replans)
				m["core.degradations"] += float64(r.Degradations)
				m["core.mem_repairs"] += float64(r.MemRepairs)
				m["core.timeouts"] += float64(r.Timeouts)
				m["sim.disk_reads"] += float64(r.Disk.Reads)
				m["sim.disk_writes"] += float64(r.Disk.Writes)
				m["exec.busy_virt_s"] += r.BusyTime.Seconds()
				m["exec.idle_virt_s"] += r.IdleTime.Seconds()
				hits += float64(r.PlanCacheHits)
				misses += float64(r.PlanCacheMisses)
			}
			m["mem.materialized_tuples"] += float64(r.MaterializedTuples)
		}
	}
	if hits+misses > 0 {
		m["plan.cache_hit_ratio"] = hits / (hits + misses)
	}
}
