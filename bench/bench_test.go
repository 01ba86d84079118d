package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dqs/internal/core"
)

// The wrapper must expose exactly the optional capabilities whose mere
// presence does not change the executor: the starvation hook only through
// the variant built for policies that have one.
var (
	_ core.Attacher          = (*timedPolicy)(nil)
	_ core.Canceller         = (*timedPolicy)(nil)
	_ core.FavorSetter       = (*timedPolicy)(nil)
	_ core.PendingDescriber  = (*timedPolicy)(nil)
	_ core.StarvationHandler = (*timedStarvingPolicy)(nil)
)

func testSpec(t *testing.T) *benchSpec {
	t.Helper()
	spec, err := loadSpec(filepath.Join("..", specPath))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func testHost(t *testing.T) hostInfo {
	t.Helper()
	host, err := detectHost(0, true)
	if err != nil {
		t.Fatal(err)
	}
	return host
}

// firstPoints shrinks a workload's cycle to its first n points, so a smoke
// pass visits one op instead of seventy-two.
type firstPoints struct {
	workload
	n int
}

func (f firstPoints) points() int { return f.n }

func smokePass(t *testing.T, w workload, tr *tracer, ref []outcome) *pass {
	t.Helper()
	p := runPass(firstPoints{w, 1}, 20*time.Millisecond, 0, tr, ref)
	if p.failed > 0 {
		t.Fatalf("ops failed: %v", p.errors)
	}
	return p
}

func listed(t *testing.T, defs []metricDef, m map[string]float64) {
	t.Helper()
	for name := range m {
		if !nameRE.MatchString(name) {
			t.Errorf("metric name %q is outside [A-Za-z0-9_.-]+", name)
		}
		if !defined(defs, name) {
			t.Errorf("metric %q is emitted but not listed in %s", name, specPath)
		}
	}
}

// TestContract checks BENCHMARK.json against the limits the driver enforces.
func TestContract(t *testing.T) {
	spec := testSpec(t)
	if n := len(spec.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range spec.Workloads {
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
		if _, err := newWorkload(w.Name); err != nil {
			t.Error(err)
		}
	}
	setup := false
	for _, d := range spec.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Name == "setup_s" {
			setup = d.Unit == "s" && d.Better == "lower"
		}
	}
	if !setup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
	if len(spec.PerLayer) > 128 || spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("%d per-layer metrics, run_seconds %d", len(spec.PerLayer), spec.RunSeconds)
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "bench" {
		t.Errorf("paths = %v", spec.Paths)
	}
}

// TestEndToEndMetrics: every workload emits every end-to-end metric, none of
// them zero, and nothing the contract does not list.
func TestEndToEndMetrics(t *testing.T) {
	spec, host := testSpec(t), testHost(t)
	for _, name := range spec.workloadNames() {
		w, err := newWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		t0 := time.Now()
		if err := w.setup(1, host); err != nil {
			t.Fatal(err)
		}
		m := map[string]float64{}
		endToEnd(w, smokePass(t, w, nil, nil), time.Since(t0).Seconds(), m)
		listed(t, spec.EndToEnd, m)
		for _, d := range spec.EndToEnd {
			if m[d.Name] <= 0 {
				t.Errorf("%s: %s = %v", name, d.Name, m[d.Name])
			}
		}
	}
}

// TestTracedPass: the traced op equals the untraced one, its spans account
// for the op, and every per-layer name it emits is in the contract. The
// serve_fused batch carries timeouts that fire, so it also proves the timing
// policy forwards Attach and Cancel.
func TestTracedPass(t *testing.T) {
	spec, host := testSpec(t), testHost(t)
	for _, name := range []string{"mem_pressure", "serve_fused"} {
		w, err := newWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.setup(1, host); err != nil {
			t.Fatal(err)
		}
		p1 := smokePass(t, w, nil, nil)
		tr := newTracer()
		p2 := smokePass(t, w, tr, p1.cycle)
		m := map[string]float64{}
		traceMetrics(tr, p2, m)
		exactCounts(p2.cycle, m)
		if err := (firstPoints{w, 1}).layer(p2.cycle, 0, m); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		listed(t, spec.PerLayer, m)
		if c := m["bench.trace_coverage_pct"]; c < 95 {
			t.Errorf("%s: layer self times cover %.1f%% of the traced op wall", name, c)
		}
		if m["core.plan_calls"] == 0 || m["source.resume_calls"] == 0 {
			t.Errorf("%s: the timing policy or the producer shim recorded nothing: %v", name, m)
		}
		if name == "serve_fused" && m["server.cancelled"] == 0 {
			t.Error("serve_fused: no timeout fired, Cancel forwarding is unproven")
		}
		if name == "mem_pressure" && m["mem.saved_s_per_resident_mb"] == 0 {
			t.Error("mem_pressure: the legacy comparison produced nothing")
		}
		path := filepath.Join(t.TempDir(), "trace.json")
		if err := tr.write(path, name, host); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSetIfPresent: the reflective setter is a no-op, not a panic, on a
// struct that lost the field.
func TestSetIfPresent(t *testing.T) {
	var with struct{ Governor bool }
	if !setIfPresent(&with, "Governor", true) || !with.Governor {
		t.Error("field present but not set")
	}
	var without struct{ MemoryBytes int64 }
	if setIfPresent(&without, "Governor", true) {
		t.Error("set a field that does not exist")
	}
	var retyped struct{ Governor string }
	if setIfPresent(&retyped, "Governor", true) {
		t.Error("set a field of another type")
	}
}

// TestSurface: the harness must build once the roadmap's doomed twins are
// deleted, so it may not name them.
func TestSurface(t *testing.T) {
	banned := []string{"PerTupleDataflow", "RowDataflow", "FullReplan", "RunConcurrent", "Isolated"}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range banned {
			if bytes.Contains(src, []byte(b)) {
				t.Errorf("%s names %s", f, b)
			}
		}
	}
}

func TestCompare(t *testing.T) {
	spec, host := testSpec(t), testHost(t)
	report := func(ops float64) *fullReport {
		m := map[string]float64{}
		for _, d := range spec.EndToEnd {
			m[d.Name] = 1
		}
		m["ops_per_s"] = ops
		return &fullReport{Host: host, Runs: []*runReport{{Workload: "sweep_small", Seed: 1, Attempted: 1, Correct: true, Digest: "d", Metrics: m}}}
	}
	var out bytes.Buffer
	if err := compareReports(&out, spec, report(100), report(95), false, true); err != nil {
		t.Errorf("5%% slower rejected: %v\n%s", err, &out)
	}
	if err := compareReports(&out, spec, report(100), report(70), false, true); err == nil {
		t.Error("30% slower accepted")
	}
	other := report(100)
	other.Host.Nproc++
	if err := compareReports(&out, spec, report(100), other, false, false); err == nil {
		t.Error("differing hosts compared without -force")
	}
	if err := compareReports(&out, spec, report(100), other, true, false); err != nil {
		t.Errorf("-force did not override the host check: %v", err)
	}
	drift := report(100)
	drift.Runs[0].Metrics["virt_response_s"] = 1.001
	if err := compareReports(&out, spec, report(100), drift, false, true); err == nil {
		t.Error("same-seed runs with differing virtual time accepted")
	}
}

func TestPercentile(t *testing.T) {
	vs := []float64{4, 1, 3, 2, 5}
	if got := percentile(vs, 0.5); got != 3 {
		t.Errorf("p50 = %v", got)
	}
	if got := percentile(vs, 0.9); got < 4.59 || got > 4.61 {
		t.Errorf("p90 = %v", got)
	}
	if percentile(nil, 0.5) != 0 {
		t.Error("empty sample")
	}
}
