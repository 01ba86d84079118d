package experiment

import (
	"strings"
	"testing"
)

func smallOptions() Options {
	return Options{Seeds: []int64{1}, Small: true}
}

func TestFigureAddPointAndAccessors(t *testing.T) {
	f := newFigure("id", "title", "x", "y", "a", "b")
	f.addPoint(1, 10, 20)
	f.addPoint(2, 11, 21)
	if len(f.X) != 2 || f.Get("a")[1] != 11 || f.Get("b")[0] != 20 {
		t.Errorf("figure data wrong: %+v", f)
	}
}

func TestFigureAddPointArityPanics(t *testing.T) {
	f := newFigure("id", "title", "x", "y", "a", "b")
	defer func() {
		if recover() == nil {
			t.Error("wrong arity accepted")
		}
	}()
	f.addPoint(1, 10)
}

func TestFigurePrintCSVChart(t *testing.T) {
	f := newFigure("Figure 6", "demo", "retrieval(s)", "response (s)", "SEQ", "DSE")
	f.addPoint(1, 10, 5)
	f.addPoint(2, 12, 6)
	var sb strings.Builder
	f.Print(&sb)
	out := sb.String()
	for _, want := range []string{"Figure 6", "SEQ", "DSE", "retrieval(s)", "12.000"} {
		if !strings.Contains(out, want) {
			t.Errorf("Print missing %q in:\n%s", want, out)
		}
	}
	csv := f.CSV()
	if !strings.HasPrefix(csv, "retrieval(s),SEQ,DSE\n") || !strings.Contains(csv, "2,12,6") {
		t.Errorf("CSV = %q", csv)
	}
	sb.Reset()
	f.Chart(&sb, 32, 8)
	chart := sb.String()
	if !strings.Contains(chart, "o=SEQ") || !strings.Contains(chart, "x=DSE") {
		t.Errorf("Chart legend missing:\n%s", chart)
	}
	// Degenerate charts must not panic or emit.
	sb.Reset()
	newFigure("e", "e", "x", "y", "a").Chart(&sb, 32, 8)
	if sb.Len() != 0 {
		t.Error("empty figure drew a chart")
	}
}

func TestTable1PrintsEveryParameter(t *testing.T) {
	var sb strings.Builder
	Table1(&sb, smallOptions().ExecConfig())
	out := sb.String()
	for _, want := range []string{
		"100 Mips", "17ms - 5ms - 6 MB/s", "8 pages", "3000 Instr.",
		"40 bytes - 8 Kb", "100 Mbs", "200000 Inst.",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 missing %q:\n%s", want, out)
		}
	}
}

func TestFig5PrintsPlanAndChains(t *testing.T) {
	var sb strings.Builder
	if err := Fig5(&sb, smallOptions()); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"hash-join", "p_A", "p_F", "ancestors"} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig5 output missing %q", want)
		}
	}
}

func TestSlowOneUnknownRelation(t *testing.T) {
	if _, err := slowOne(smallOptions(), "Z"); err == nil {
		t.Error("unknown relation accepted")
	}
}

func TestFig6ShapesAtSmallScale(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run experiment")
	}
	fig, err := Fig6(smallOptions())
	if err != nil {
		t.Fatal(err)
	}
	seq, dse, ma, lwb := fig.Get("SEQ"), fig.Get("DSE"), fig.Get("MA"), fig.Get("LWB")
	if len(seq) < 4 {
		t.Fatalf("only %d points", len(seq))
	}
	for i := range seq {
		if dse[i] > seq[i]*1.001 {
			t.Errorf("x=%v: DSE (%v) above SEQ (%v)", fig.X[i], dse[i], seq[i])
		}
		if dse[i] < lwb[i]*0.999 {
			t.Errorf("x=%v: DSE (%v) below LWB (%v)", fig.X[i], dse[i], lwb[i])
		}
		if ma[i] < lwb[i]*0.999 {
			t.Errorf("x=%v: MA (%v) below LWB (%v)", fig.X[i], ma[i], lwb[i])
		}
		if i > 0 && seq[i] <= seq[i-1] {
			t.Errorf("SEQ not increasing at x=%v", fig.X[i])
		}
	}
	// MA is roughly flat until the slowdown dominates: its first and
	// mid-range values stay within 25%.
	if ma[2] > ma[0]*1.25 {
		t.Errorf("MA rose early: %v -> %v", ma[0], ma[2])
	}
}

func TestFig8GainGrowsWithWmin(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run experiment")
	}
	o := smallOptions()
	fig, err := Fig8(o)
	if err != nil {
		t.Fatal(err)
	}
	gain := fig.Get("gain(%)")
	if len(gain) < 5 {
		t.Fatalf("only %d points", len(gain))
	}
	if gain[len(gain)-1] < 30 {
		t.Errorf("gain at the largest w_min = %v%%, want substantial", gain[len(gain)-1])
	}
	if gain[len(gain)-1] <= gain[0] {
		t.Errorf("gain did not grow: %v -> %v", gain[0], gain[len(gain)-1])
	}
}

func TestAblationSkewStaysCorrectAndStable(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run experiment")
	}
	fig, err := AblationSkew(smallOptions())
	if err != nil {
		t.Fatal(err)
	}
	dse := fig.Get("DSE(s)")
	var base float64
	for i, x := range fig.X {
		if x == 1 {
			base = dse[i]
		}
	}
	if base <= 0 {
		t.Fatal("no skew=1 baseline point")
	}
	for i, v := range dse {
		if v > base*1.5 {
			t.Errorf("skew %v blew up the response: %v vs baseline %v", fig.X[i], v, base)
		}
	}
}

func TestDelayClassesQualitative(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run experiment")
	}
	fig, err := DelayClasses(smallOptions())
	if err != nil {
		t.Fatal(err)
	}
	seq, scr, dse := fig.Get("SEQ"), fig.Get("SCR"), fig.Get("DSE")
	if len(seq) != 3 {
		t.Fatalf("%d classes, want 3", len(seq))
	}
	// Initial delay: scrambling helps.
	if scr[0] >= seq[0] {
		t.Errorf("initial delay: SCR (%v) did not beat SEQ (%v)", scr[0], seq[0])
	}
	// Slow delivery: scrambling degenerates to SEQ.
	if scr[2] != seq[2] {
		t.Errorf("slow delivery: SCR (%v) != SEQ (%v)", scr[2], seq[2])
	}
	// DSE wins every class.
	for i := range seq {
		if dse[i] > seq[i]*1.001 || dse[i] > scr[i]*1.001 {
			t.Errorf("class %d: DSE (%v) not best (SEQ %v, SCR %v)", i, dse[i], seq[i], scr[i])
		}
	}
}

func TestStarSweepShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run experiment")
	}
	fig, err := StarSweep(smallOptions())
	if err != nil {
		t.Fatal(err)
	}
	seq, dse, lwb := fig.Get("SEQ"), fig.Get("DSE"), fig.Get("LWB")
	last := len(seq) - 1
	// With slow independent dimensions, SEQ pays the sum of retrievals and
	// DSE the max: at the slowest point DSE must be well below SEQ.
	if dse[last] > seq[last]*0.8 {
		t.Errorf("DSE (%v) not clearly below SEQ (%v) at the slowest dimensions", dse[last], seq[last])
	}
	for i := range seq {
		if dse[i] < lwb[i]*0.999 {
			t.Errorf("x=%v: DSE (%v) below LWB (%v)", fig.X[i], dse[i], lwb[i])
		}
		if i > 0 && seq[i] <= seq[i-1] {
			t.Errorf("SEQ not increasing at x=%v", fig.X[i])
		}
	}
}

func TestMultiQueryThroughputImproves(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run experiment")
	}
	fig, err := MultiQuery(smallOptions())
	if err != nil {
		t.Fatal(err)
	}
	speedup := fig.Get("speedup")
	if speedup[0] < 0.99 || speedup[0] > 1.01 {
		t.Errorf("1-query speedup = %v, want 1", speedup[0])
	}
	last := speedup[len(speedup)-1]
	if last < 1.2 {
		t.Errorf("4-query speedup = %v, want a clear improvement over serial", last)
	}
	// Makespan must never beat the average response of a single query run
	// alone (no free lunch), and serial is always the upper envelope.
	mk, serial := fig.Get("makespan(s)"), fig.Get("serial(s)")
	for i := range mk {
		if mk[i] > serial[i]*1.001 {
			t.Errorf("n=%v: makespan %v above serial %v", fig.X[i], mk[i], serial[i])
		}
	}
}

func TestPositionSweepCoversAllRelations(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run experiment")
	}
	fig, err := PositionSweep(smallOptions(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.X) != 6 {
		t.Fatalf("%d positions, want 6", len(fig.X))
	}
	seq, dse := fig.Get("SEQ"), fig.Get("DSE")
	for i := range seq {
		if dse[i] > seq[i]*1.001 {
			t.Errorf("position %v: DSE (%v) above SEQ (%v)", fig.X[i], dse[i], seq[i])
		}
	}
}
