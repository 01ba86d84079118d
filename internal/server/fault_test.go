package server

import (
	"slices"
	"testing"
	"time"

	"dqs/internal/exec"
	"dqs/internal/fault"
	"dqs/internal/reftest"
	"dqs/internal/workload"
)

// TestLateFaultedQueryIsWatched admits a query whose wrapper dies after the
// batch's engine was built: a Fig5Small query starts alone at t=0, and a
// small star query arrives at 10 ms with DIM0 killed at row 10. The silence
// detector must watch the late query's wrapper like a first query's, so
// under PartialResults the star query completes degraded at p_DIM0 instead
// of livelocking the engine once the Fig5 query is done. The Fig5 query
// reads no faulted relation and returns its full answer at the instant it
// always had.
func TestLateFaultedQueryIsWatched(t *testing.T) {
	fig, err := workload.Fig5Small(1)
	if err != nil {
		t.Fatal(err)
	}
	star, err := workload.Star(1, workload.SmallStarSpec())
	if err != nil {
		t.Fatal(err)
	}
	uniform := func(w *workload.Workload) map[string]exec.Delivery {
		d := make(map[string]exec.Delivery, w.Catalog.Len())
		for _, name := range w.Catalog.Names() {
			d[name] = exec.Delivery{MeanWait: 20 * time.Microsecond}
		}
		return d
	}
	plan, err := fault.Parse("DIM0:kill@10")
	if err != nil {
		t.Fatal(err)
	}
	cfg := exec.DefaultConfig()
	cfg.Faults = plan
	cfg.PartialResults = true
	reports, _ := runServer(t, Config{Exec: cfg}, []Query{
		{Label: "fig", Workload: fig, Deliveries: uniform(fig)},
		{Label: "star", Workload: star, Deliveries: uniform(star), ArriveAt: 10 * time.Millisecond},
	})
	f, s := reports[0], reports[1]
	if got, want := f.Result.OutputRows, int64(len(reftest.Eval(fig.Root, fig.Dataset))); got != want || len(f.Result.DegradedFragments) != 0 {
		t.Errorf("fig: %d rows, degraded %v; want the reference %d, none", got, f.Result.DegradedFragments, want)
	}
	if want := 452767521 * time.Nanosecond; f.CompletedAt != want {
		t.Errorf("fig completed at %v, want %v", f.CompletedAt, want)
	}
	if !slices.Equal(s.Result.DegradedFragments, []string{"p_DIM0"}) || s.Result.OutputRows >= int64(len(reftest.Eval(star.Root, star.Dataset))) {
		t.Errorf("star: %d rows, degraded %v; want a partial answer, degraded [p_DIM0]", s.Result.OutputRows, s.Result.DegradedFragments)
	}
	t.Logf("fig at %v (%d rows); star at %v (%d rows, degraded %v)",
		f.CompletedAt, f.Result.OutputRows, s.CompletedAt, s.Result.OutputRows, s.Result.DegradedFragments)
}
