package server_test

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"dqs/internal/exec"
	"dqs/internal/reftest"
	"dqs/internal/server"
	"dqs/internal/sim"
	"dqs/internal/workload"
)

// updateGoldens refreshes testdata/server_grid.golden. The golden pins every
// report, statistic and trace of the multi-query drivers: regenerate it only
// for a deliberate, explained behaviour change.
var updateGoldens = flag.Bool("update-goldens", false, "rewrite testdata/server_grid.golden")

// gridQueries builds the grid's batch: four distinct small workloads with
// uniform deliveries (an unloaded response of ~0.8 s each), query i arriving
// at i*gap with priority i, so the priority discipline reorders whatever
// queues. With timeouts on, q1 is cancelled mid-run and q3 at its second
// planning point.
func gridQueries(t *testing.T, ws []*workload.Workload, gap time.Duration, timeouts bool) []server.Query {
	t.Helper()
	queries := make([]server.Query, len(ws))
	for i, w := range ws {
		d := make(map[string]exec.Delivery, w.Catalog.Len())
		for _, name := range w.Catalog.Names() {
			d[name] = exec.Delivery{MeanWait: 20 * time.Microsecond}
		}
		queries[i] = server.Query{
			Label:      fmt.Sprintf("q%d", i),
			Workload:   w,
			Deliveries: d,
			ArriveAt:   time.Duration(i) * gap,
			Priority:   i,
		}
	}
	if timeouts {
		queries[1].Timeout = 250 * time.Millisecond
		queries[3].Timeout = 50 * time.Microsecond
	}
	return queries
}

// resultLine spells out every Result field.
func resultLine(res exec.Result) string {
	return fmt.Sprintf("strat=%s resp=%d busy=%d idle=%d out=%d disk=%+v peak=%d mat=%d replans=%d degr=%d timeouts=%d memrep=%d maxerr=%.9f first=%d timeline=%v degraded=%v plancache=%d/%d",
		res.Strategy, res.ResponseTime.Nanoseconds(), res.BusyTime.Nanoseconds(), res.IdleTime.Nanoseconds(),
		res.OutputRows, res.Disk, res.PeakMemBytes, res.MaterializedTuples,
		res.Replans, res.Degradations, res.Timeouts, res.MemRepairs, res.MaxEstError,
		res.FirstTupleTime.Nanoseconds(), res.TupleTimeline, res.DegradedFragments,
		res.PlanCacheHits, res.PlanCacheMisses)
}

// traceDigest hashes the rendered trace.
func traceDigest(t *testing.T, tr *sim.Trace) [sha256.Size]byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.Dump(&buf); err != nil {
		t.Fatal(err)
	}
	return sha256.Sum256(buf.Bytes())
}

// serve runs one server batch, tracing into a fresh trace.
func serve(cfg server.Config, queries []server.Query) ([]server.Report, server.Stats, *sim.Trace, error) {
	tr := &sim.Trace{}
	cfg.Exec.Trace = tr
	s, err := server.New(cfg)
	for i := 0; err == nil && i < len(queries); i++ {
		err = s.Submit(queries[i])
	}
	if err != nil {
		return nil, server.Stats{}, tr, err
	}
	reports, stats, err := s.Run()
	return reports, stats, tr, err
}

// refRows caches the reference evaluator's row count per workload.
var refRows = map[*workload.Workload]int64{}

// runCell runs one server batch and renders its reports, statistics and
// trace digest (or its error) as golden lines. Every query that was not
// cancelled must return the reference evaluator's row count.
func runCell(t *testing.T, out *bytes.Buffer, cell string, cfg server.Config, queries []server.Query) {
	t.Helper()
	reports, stats, tr, err := serve(cfg, queries)
	if err != nil {
		fmt.Fprintf(out, "%s: error: %v\n", cell, err)
		return
	}
	for i, rep := range reports {
		w := queries[i].Workload
		if _, ok := refRows[w]; !ok {
			refRows[w] = int64(len(reftest.Eval(w.Root, w.Dataset)))
		}
		if !rep.Cancelled && rep.Result.OutputRows != refRows[w] {
			t.Errorf("%s/%s: %d rows, the reference evaluator returns %d", cell, rep.Label, rep.Result.OutputRows, refRows[w])
		}
		fmt.Fprintf(out, "%s/%s: arrived=%d admitted=%d completed=%d wait=%d cancelled=%v %s\n",
			cell, rep.Label, rep.ArrivedAt.Nanoseconds(), rep.AdmittedAt.Nanoseconds(),
			rep.CompletedAt.Nanoseconds(), rep.AdmissionWait.Nanoseconds(), rep.Cancelled, resultLine(rep.Result))
	}
	fmt.Fprintf(out, "%s: queries=%d cancelled=%d peakactive=%d peakqueued=%d totalwait=%d makespan=%d sharedstreams=%d taps=%d trace=%x\n",
		cell, stats.Queries, stats.Cancelled, stats.PeakActive, stats.PeakQueued,
		stats.TotalAdmissionWait.Nanoseconds(), stats.Makespan.Nanoseconds(),
		stats.SharedStreams, stats.StreamTaps, traceDigest(t, tr))
}

// TestServerGridMatchesGolden pins the multi-query driver: MaxActive {1, 2,
// unbounded} × FIFO/priority × the three fairness modes × timeouts off/on ×
// burst, spaced (overlapping) and sparse (never overlapping) arrivals —
// every Report, the Stats and a digest of the trace. Around the grid: a
// batch over shared streams at a 4 MiB grant, staggered batches and bursts
// under the other engine strategies, and a burst with no cap and global
// fairness at one, three and four queries. The cells keep the "fused/" prefix
// of the retired two-mode grid, so their lines stay comparable.
func TestServerGridMatchesGolden(t *testing.T) {
	ws := make([]*workload.Workload, 4)
	for i := range ws {
		w, err := workload.Fig5Small(int64(i + 1))
		if err != nil {
			t.Fatal(err)
		}
		ws[i] = w
	}
	arrivals := []struct {
		name string
		gap  time.Duration
	}{{"burst", 0}, {"spaced", 300 * time.Millisecond}, {"sparse", 100 * time.Second}}
	fairness := []server.Fairness{server.FairGlobal, server.FairRoundRobin, server.FairWeightedByWait}

	var grid bytes.Buffer
	for _, maxActive := range []int{1, 2, 0} {
		for _, disc := range []server.Discipline{server.FIFO, server.Priority} {
			for _, fair := range fairness {
				for _, timeouts := range []bool{false, true} {
					for _, arr := range arrivals {
						cell := fmt.Sprintf("fused/cap%d/%v/%v/timeouts=%v/%s", maxActive, disc, fair, timeouts, arr.name)
						cfg := server.Config{Exec: exec.DefaultConfig(), MaxActive: maxActive, Discipline: disc, Fairness: fair}
						runCell(t, &grid, cell, cfg, gridQueries(t, ws, arr.gap, timeouts))
					}
				}
			}
		}
	}

	// Shared streams under a 4 MiB grant: the first two queries scan one
	// workload instance, so their wrappers share physical streams.
	shared := gridQueries(t, []*workload.Workload{ws[0], ws[0], ws[1], ws[2]}, 200*time.Millisecond, true)
	sharedCfg := exec.DefaultConfig()
	sharedCfg.SharedStreams = true
	sharedCfg.MemoryBytes = 4 << 20
	for _, fair := range fairness {
		runCell(t, &grid, fmt.Sprintf("fused/shared-4MiB/cap2/%v", fair),
			server.Config{Exec: sharedCfg, MaxActive: 2, Fairness: fair}, shared)
	}
	// Staggered arrivals behind a cap of two: later queries attach mid-run,
	// and a timeout cancels under the static policies as under DSE. DPHJ
	// admits a query once the running feeds finish, so no planning point
	// falls inside a query for a timeout to strike at.
	for _, strategy := range []string{"SEQ", "MA", "SCR", "DPHJ"} {
		for _, timeouts := range []bool{false, true} {
			runCell(t, &grid, fmt.Sprintf("fused/%s/cap2/timeouts=%v/spaced", strategy, timeouts),
				server.Config{Exec: exec.DefaultConfig(), Strategy: strategy, MaxActive: 2},
				gridQueries(t, ws, 300*time.Millisecond, timeouts))
		}
	}
	// Simultaneous arrivals with no cap: one engine over every query from
	// the first round. Each query completes at its own instant, not at the
	// batch makespan.
	for _, strategy := range []string{"SEQ", "MA", "SCR", "DPHJ"} {
		runCell(t, &grid, fmt.Sprintf("fused/%s/cap0/burst", strategy),
			server.Config{Exec: exec.DefaultConfig(), Strategy: strategy},
			gridQueries(t, ws, 0, false))
	}

	// A server whose queries all arrive at time zero, with no cap and global
	// fairness: one engine over every query from the first round.
	for _, c := range []struct {
		name string
		n    int
	}{{"one", 1}, {"three", 3}, {"four", 4}} {
		cell := "runconcurrent/" + c.name
		reports, _, tr, err := serve(server.Config{Exec: exec.DefaultConfig()},
			gridQueries(t, ws[:c.n], 0, false))
		if err != nil {
			fmt.Fprintf(&grid, "%s: error: %v\n", cell, err)
			continue
		}
		for _, rep := range reports {
			fmt.Fprintf(&grid, "%s/%s: %s\n", cell, rep.Label, resultLine(rep.Result))
		}
		fmt.Fprintf(&grid, "%s: trace=%x\n", cell, traceDigest(t, tr))
	}

	path := filepath.Join("testdata", "server_grid.golden")
	if *updateGoldens {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, grid.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", path, grid.Len())
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run `go test ./internal/server -run Golden -update-goldens` on the known-good tree): %v", path, err)
	}
	got, wantLines := bytes.Split(grid.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
	if len(got) != len(wantLines) {
		t.Fatalf("server_grid.golden has %d lines, this run rendered %d", len(wantLines), len(got))
	}
	for i := range got {
		if !bytes.Equal(got[i], wantLines[i]) {
			t.Errorf("server_grid.golden line %d diverged\n--- want\n%s\n--- got\n%s", i+1, wantLines[i], got[i])
		}
	}
}
