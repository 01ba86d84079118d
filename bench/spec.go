package main

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"sort"
)

// specPath is where the benchmark contract lives, relative to the checkout
// root the command runs from.
const specPath = "BENCHMARK.json"

// metricDef is one metric of the contract: its name, unit, direction and —
// for end-to-end metrics only — the share of the baseline median by which it
// may worsen before a change counts as a regression.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchSpec mirrors BENCHMARK.json. The harness reads units, directions and
// bounds from it instead of repeating them, so the file stays the single
// definition the driver and the harness agree on.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func loadSpec(path string) (*benchSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("bench: read contract: %w", err)
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("bench: parse %s: %w", path, err)
	}
	seen := map[string]bool{}
	for _, list := range [][]metricDef{s.EndToEnd, s.PerLayer} {
		for _, m := range list {
			if !nameRE.MatchString(m.Name) || seen[m.Name] {
				return nil, fmt.Errorf("bench: %s: bad or repeated metric name %q", path, m.Name)
			}
			if m.Better != "lower" && m.Better != "higher" {
				return nil, fmt.Errorf("bench: %s: metric %q: better must be lower or higher", path, m.Name)
			}
			seen[m.Name] = true
		}
	}
	return &s, nil
}

// defs returns the metric list one pass reports: end-to-end metrics for the
// untraced pass, per-layer metrics for the traced one.
func (s *benchSpec) defs(trace bool) []metricDef {
	if trace {
		return s.PerLayer
	}
	return s.EndToEnd
}

func (s *benchSpec) workloadNames() []string {
	names := make([]string, len(s.Workloads))
	for i, w := range s.Workloads {
		names[i] = w.Name
	}
	return names
}

// percentile returns the p-quantile (0..1) of vs by linear interpolation
// between closest ranks; vs need not be sorted. Zero for an empty sample.
func percentile(vs []float64, p float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	var sum float64
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}
