// Package experiment regenerates every table and figure of the paper's
// evaluation (§5), plus the ablation studies called out in DESIGN.md. Each
// experiment returns its data as a Figure so tests and benchmarks can
// assert the qualitative shapes the paper reports, and prints the same
// rows/series the paper plots.
//
// Every sweep decomposes into Cells — independent deterministic simulator
// runs (workload seed × config × strategy × delivery generator) — that a
// bounded worker pool (Options.Parallel) executes concurrently. Results
// are assembled into Figures in the enqueue order, so parallelism changes
// wall-clock time only: the reported virtual times, and therefore the
// printed figures, are byte-identical at any worker count.
package experiment

import (
	"fmt"
	"io"
	"strings"
)

// Figure holds one experiment's results: an x-axis and one or more named
// series over it.
type Figure struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	X      []float64
	Order  []string // series presentation order
	Series map[string][]float64
}

// newFigure allocates an empty figure with the given series order.
func newFigure(id, title, xlabel, ylabel string, order ...string) *Figure {
	return &Figure{
		ID:     id,
		Title:  title,
		XLabel: xlabel,
		YLabel: ylabel,
		Order:  order,
		Series: make(map[string][]float64),
	}
}

// addPoint appends one x value with its series values (in Order).
func (f *Figure) addPoint(x float64, values ...float64) {
	if len(values) != len(f.Order) {
		panic(fmt.Sprintf("experiment: %s: %d values for %d series", f.ID, len(values), len(f.Order)))
	}
	f.X = append(f.X, x)
	for i, name := range f.Order {
		f.Series[name] = append(f.Series[name], values[i])
	}
}

// Get returns one series.
func (f *Figure) Get(name string) []float64 { return f.Series[name] }

// Print renders the figure as an aligned table, one row per x value.
func (f *Figure) Print(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", f.ID, f.Title)
	fmt.Fprintf(w, "%-14s", f.XLabel)
	for _, name := range f.Order {
		fmt.Fprintf(w, " %12s", name)
	}
	fmt.Fprintf(w, "    [%s]\n", f.YLabel)
	for i, x := range f.X {
		fmt.Fprintf(w, "%-14.3f", x)
		for _, name := range f.Order {
			fmt.Fprintf(w, " %12.3f", f.Series[name][i])
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
}

// CSV renders the figure as comma-separated values with a header row.
func (f *Figure) CSV() string {
	var b strings.Builder
	b.WriteString(f.XLabel)
	for _, name := range f.Order {
		b.WriteByte(',')
		b.WriteString(name)
	}
	b.WriteByte('\n')
	for i, x := range f.X {
		fmt.Fprintf(&b, "%g", x)
		for _, name := range f.Order {
			fmt.Fprintf(&b, ",%g", f.Series[name][i])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Chart renders a crude ASCII line chart of the figure (one glyph per
// series), for terminal inspection of the shapes.
func (f *Figure) Chart(w io.Writer, width, height int) {
	if len(f.X) == 0 || width < 8 || height < 4 {
		return
	}
	glyphs := "ox*+#@%&"
	minY, maxY := f.Series[f.Order[0]][0], f.Series[f.Order[0]][0]
	for _, name := range f.Order {
		for _, v := range f.Series[name] {
			if v < minY {
				minY = v
			}
			if v > maxY {
				maxY = v
			}
		}
	}
	if maxY == minY {
		maxY = minY + 1
	}
	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	minX, maxX := f.X[0], f.X[len(f.X)-1]
	if maxX == minX {
		maxX = minX + 1
	}
	for si, name := range f.Order {
		g := glyphs[si%len(glyphs)]
		for i, x := range f.X {
			v := f.Series[name][i]
			col := int((x - minX) / (maxX - minX) * float64(width-1))
			row := height - 1 - int((v-minY)/(maxY-minY)*float64(height-1))
			grid[row][col] = g
		}
	}
	fmt.Fprintf(w, "%s  [%s vs %s]\n", f.Title, f.YLabel, f.XLabel)
	for _, line := range grid {
		fmt.Fprintf(w, "  |%s\n", string(line))
	}
	fmt.Fprintf(w, "  +%s\n", strings.Repeat("-", width))
	var legend []string
	for si, name := range f.Order {
		legend = append(legend, fmt.Sprintf("%c=%s", glyphs[si%len(glyphs)], name))
	}
	fmt.Fprintf(w, "   %s   x: %.3g..%.3g  y: %.3g..%.3g\n\n",
		strings.Join(legend, "  "), minX, maxX, minY, maxY)
}
