package main

import (
	"fmt"
	"io"
)

// exactMetrics are functions of the seed alone: two runs of the same code
// with the same seed must agree on them to the last digit.
var exactMetrics = map[string]bool{
	"virt_response_s": true, "virt_first_tuple_ms": true,
	"plan.cache_hit_ratio": true, "exec.emit_tuples": true,
	"core.replans": true, "core.degradations": true, "core.mem_repairs": true, "core.timeouts": true,
	"mem.materialized_tuples": true, "mem.peak_bytes": true,
	"sim.disk_reads": true, "sim.disk_writes": true, "exec.busy_virt_s": true, "exec.idle_virt_s": true,
	"paper.dse_gain_pct": true, "paper.lwb_ratio": true, "mem.saved_s_per_resident_mb": true,
	"server.peak_active": true, "server.peak_queued": true, "server.cancelled": true,
	"server.virt_admission_wait_s": true, "server.virt_makespan_s": true,
	"server.virt_response_ms_p50": true, "server.virt_response_ms_p90": true,
	"source.shared_streams": true, "source.stream_taps": true,
}

// worsening returns by what share of a the value b is worse, given the
// metric's direction (negative when b is better).
func worsening(d metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if d.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// compareReports prints, per end-to-end metric and workload, the relative
// difference of b against a beside the metric's bound, and returns an error
// when any exceeds it or any op failed. With exact (two sets of the same
// code and seed) every exactMetrics value, per-layer ones included, and the
// outcome digests — Results and cancelled sets — must also be identical.
func compareReports(w io.Writer, spec *benchSpec, a, b *fullReport, force, exact bool) error {
	if !a.Host.comparable(b.Host) {
		if !force {
			return fmt.Errorf("bench: reports come from differing hosts (-force to compare anyway):\n  %s\n  %s", a.Host, b.Host)
		}
		fmt.Fprintf(w, "warning: differing hosts:\n  %s\n  %s\n", a.Host, b.Host)
	}
	find := func(r *fullReport, workload string, trace bool) *runReport {
		for _, run := range r.Runs {
			if run.Workload == workload && run.Trace == trace {
				return run
			}
		}
		return nil
	}
	bad := 0
	fmt.Fprintf(w, "%-14s %-22s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "worse%", "bound%")
	for _, name := range spec.workloadNames() {
		for _, trace := range []bool{false, true} {
			ra, rb := find(a, name, trace), find(b, name, trace)
			if ra == nil || rb == nil {
				continue
			}
			if ra.Failed+rb.Failed > 0 {
				fmt.Fprintf(w, "%-14s ops failed: %d and %d\n", name, ra.Failed, rb.Failed)
				bad++
			}
			sameInputs := ra.Seed == rb.Seed
			if exact && sameInputs && ra.Digest != rb.Digest {
				fmt.Fprintf(w, "%-14s trace=%v outcome digests differ: %s vs %s\n", name, trace, ra.Digest, rb.Digest)
				bad++
			}
			for _, d := range spec.defs(trace) {
				va, vb := ra.Metrics[d.Name], rb.Metrics[d.Name]
				mark := ""
				switch {
				case exact && sameInputs && exactMetrics[d.Name]:
					if va != vb {
						mark = "  NOT IDENTICAL"
						bad++
					}
				case !trace && worsening(d, va, vb) > d.Bound:
					mark = "  EXCEEDS BOUND"
					bad++
				}
				if !trace {
					fmt.Fprintf(w, "%-14s %-22s %14.6g %14.6g %+9.2f %7.1f%s\n",
						name, d.Name, va, vb, 100*worsening(d, va, vb), 100*d.Bound, mark)
				} else if mark != "" {
					fmt.Fprintf(w, "%-14s %-22s %14.6g %14.6g%s\n", name, d.Name, va, vb, mark)
				}
			}
		}
	}
	if bad > 0 {
		return fmt.Errorf("bench: %d comparisons failed", bad)
	}
	fmt.Fprintln(w, "all comparisons within bounds")
	return nil
}
