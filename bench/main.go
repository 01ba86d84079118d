// Command bench is the repository's benchmark: four named workloads, each
// measured on two clocks — host time (what the simulator and the service
// cost to run) and virtual time (the paper's response-time metric) — with a
// per-layer ledger from a separate traced pass. BENCHMARK.json at the
// repository root is its contract; README.md in this directory explains the
// workloads, the metrics and how they interact.
//
//	go run ./bench -workload W -seed N -seconds S -trace 0|1   one pass of one workload
//	go run ./bench [-seed N] [-seconds S] [-json out.json]      every workload, both passes
//	go run ./bench -verify                                      two full sets, compared within bounds
//	go run ./bench -compare a.json b.json                       two saved reports
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// hostInfo describes where numbers were taken; reports from differing hosts
// are not comparable.
type hostInfo struct {
	Nproc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOGC       string `json:"gogc"`
	Commit     string `json:"git_commit"`
	// Workers is the engine worker pool of the scale_full workload.
	Workers int `json:"workers"`
}

func (h hostInfo) String() string {
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d %s GOGC=%s commit=%s workers=%d",
		h.Nproc, h.GOMAXPROCS, h.GoVersion, h.GOGC, h.Commit, h.Workers)
}

// comparable reports whether numbers from the two hosts may be compared.
func (h hostInfo) comparable(o hostInfo) bool {
	return h.Nproc == o.Nproc && h.GOMAXPROCS == o.GOMAXPROCS && h.GoVersion == o.GoVersion &&
		h.GOGC == o.GOGC && h.Workers == o.Workers
}

// detectHost fills the host description. workers 0 means one per processor.
// It refuses a GOMAXPROCS or a worker pool larger than the machine unless
// forced: oversubscribed timings describe the scheduler, not the program.
func detectHost(workers int, force bool) (hostInfo, error) {
	h := hostInfo{
		Nproc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOGC:       "100",
		Commit:     "unknown",
		Workers:    workers,
	}
	if v := os.Getenv("GOGC"); v != "" {
		h.GOGC = v
	}
	if h.Workers == 0 {
		h.Workers = min(h.Nproc, h.GOMAXPROCS)
	}
	// Only a checkout that is itself a git repository has a commit to name.
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
			h.Commit = strings.TrimSpace(string(out))
		}
	}
	if !force {
		if h.GOMAXPROCS > h.Nproc {
			return h, fmt.Errorf("bench: GOMAXPROCS=%d exceeds nproc=%d (-force to run anyway)", h.GOMAXPROCS, h.Nproc)
		}
		if h.Workers > h.Nproc {
			return h, fmt.Errorf("bench: worker pool %d exceeds nproc=%d (-force to run anyway)", h.Workers, h.Nproc)
		}
	}
	return h, nil
}

// fullReport is what -json writes and -compare reads: the runs of one
// invocation.
type fullReport struct {
	Host hostInfo     `json:"host"`
	Runs []*runReport `json:"runs"`
}

func writeJSON(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

func readReport(path string) (*fullReport, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r fullReport
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// options are the command's flags.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	jsonPath string
	verify   bool
	compare  bool
	force    bool
	workers  int
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(args []string) error {
	spec, err := loadSpec(specPath)
	if err != nil {
		return err
	}
	var o options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "run one pass of this workload ("+strings.Join(spec.workloadNames(), ", ")+"); empty runs them all, both passes")
	fs.Int64Var(&o.seed, "seed", 1, "drives dataset seeds, op order, delay streams and arrival jitter")
	fs.Float64Var(&o.seconds, "seconds", float64(spec.RunSeconds), "how long one pass measures")
	fs.IntVar(&o.trace, "trace", 0, "0: untraced pass, end-to-end metrics; 1: traced pass, per-layer metrics")
	fs.StringVar(&o.jsonPath, "json", "", "also write the full report to this file")
	fs.BoolVar(&o.verify, "verify", false, "run two full sets on the same code and compare them within the bounds")
	fs.BoolVar(&o.compare, "compare", false, "compare two saved reports: -compare a.json b.json")
	fs.BoolVar(&o.force, "force", false, "run oversubscribed, or compare reports from differing hosts")
	fs.IntVar(&o.workers, "workers", 0, "engine worker pool of scale_full (0: one per processor)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if o.compare {
		if fs.NArg() != 2 {
			return fmt.Errorf("bench: -compare takes two report files")
		}
		a, err := readReport(fs.Arg(0))
		if err != nil {
			return err
		}
		b, err := readReport(fs.Arg(1))
		if err != nil {
			return err
		}
		return compareReports(os.Stdout, spec, a, b, o.force, false)
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("bench: unexpected arguments %v", fs.Args())
	}
	if o.seconds <= 0 || (o.trace != 0 && o.trace != 1) {
		return fmt.Errorf("bench: -seconds must be positive and -trace 0 or 1")
	}
	host, err := detectHost(o.workers, o.force)
	if err != nil {
		return err
	}
	if o.workload != "" {
		return runOne(spec, o, host)
	}
	first, err := runAll(spec, o, host)
	if err != nil {
		return err
	}
	if o.jsonPath != "" {
		if err := writeJSON(o.jsonPath, first); err != nil {
			return err
		}
	}
	if !o.verify {
		return nil
	}
	second, err := runAll(spec, o, host)
	if err != nil {
		return err
	}
	return compareReports(os.Stdout, spec, first, second, o.force, true)
}

// runOne is the contract command: one pass of one workload, every metric
// printed by name, and the result object as the last line of stdout.
func runOne(spec *benchSpec, o options, host hostInfo) error {
	rc := runConfig{workload: o.workload, seed: o.seed, seconds: o.seconds, trace: o.trace == 1,
		outDir: filepath.Join(spec.Paths[0], "out")}
	rep, err := runWorkload(rc, host)
	if err != nil {
		return err
	}
	defs := spec.defs(rc.trace)
	for name := range rep.Metrics {
		if !defined(defs, name) {
			return fmt.Errorf("bench: metric %q is not listed in %s", name, specPath)
		}
	}
	printRun(os.Stdout, defs, rep)
	if o.jsonPath != "" {
		if err := writeJSON(o.jsonPath, fullReport{Host: host, Runs: []*runReport{rep}}); err != nil {
			return err
		}
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	result := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, map[string]value{}}
	for _, d := range defs {
		// A per-layer metric that does not apply to this workload (server.*
		// off serve_fused, say) reads 0.
		result.Metrics[d.Name] = value{rep.Metrics[d.Name], d.Unit}
	}
	line, err := json.Marshal(result)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !rep.Correct {
		return fmt.Errorf("bench: %s: %d of %d ops failed: %s", o.workload, rep.Failed, rep.Attempted, strings.Join(rep.Errors, "; "))
	}
	return nil
}

func defined(defs []metricDef, name string) bool {
	for _, d := range defs {
		if d.Name == name {
			return true
		}
	}
	return false
}

// printRun prints one run for people: where it ran, what was discarded, and
// every metric with unit, direction and regression bound.
func printRun(w *os.File, defs []metricDef, rep *runReport) {
	fmt.Fprintf(w, "bench: workload=%s trace=%v seed=%d seconds=%g\n", rep.Workload, rep.Trace, rep.Seed, rep.Seconds)
	fmt.Fprintf(w, "host: %s\n", rep.Host)
	fmt.Fprintf(w, "ops: timed=%d warmup_discarded=%d (%.2fs) attempted=%d failed=%d fail_ratio=%g p90_samples_beyond=%d outcome_digest=%s\n",
		rep.TimedOps, rep.WarmupOps, rep.WarmupS, rep.Attempted, rep.Failed,
		float64(rep.Failed)/float64(rep.Attempted), rep.TimedOps/10, rep.Digest)
	for _, e := range rep.Errors {
		fmt.Fprintf(w, "error: %s\n", e)
	}
	fmt.Fprintf(w, "%-36s %16s  %-10s %-7s %s\n", "metric", "value", "unit", "better", "bound")
	for _, d := range defs {
		bound := "-"
		if !rep.Trace {
			bound = strconv.FormatFloat(d.Bound, 'g', -1, 64)
		}
		fmt.Fprintf(w, "%-36s %16.6g  %-10s %-7s %s\n", d.Name, rep.Metrics[d.Name], d.Unit, d.Better, bound)
	}
}

// runAll runs every workload twice — pass 1 untraced, pass 2 traced — each in
// a process of its own, exactly as the contract command would, so peak RSS,
// heap state and caches belong to one workload and one pass.
func runAll(spec *benchSpec, o options, host hostInfo) (*fullReport, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	out := filepath.Join(spec.Paths[0], "out")
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(out, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	full := &fullReport{Host: host}
	for _, name := range spec.workloadNames() {
		for trace := 0; trace <= 1; trace++ {
			path := filepath.Join(dir, fmt.Sprintf("%s-%d.json", name, trace))
			args := []string{"-workload", name, "-seed", strconv.FormatInt(o.seed, 10),
				"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace),
				"-workers", strconv.Itoa(host.Workers), "-json", path}
			if o.force {
				args = append(args, "-force")
			}
			cmd := exec.Command(exe, args...)
			cmd.Stderr = os.Stderr
			if err := cmd.Run(); err != nil {
				return nil, fmt.Errorf("bench: %s trace=%d: %w", name, trace, err)
			}
			one, err := readReport(path)
			if err != nil {
				return nil, err
			}
			rep := one.Runs[0]
			full.Runs = append(full.Runs, rep)
			printRun(os.Stdout, spec.defs(trace == 1), rep)
			fmt.Println()
		}
	}
	return full, nil
}
