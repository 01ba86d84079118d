package server

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"dqs/internal/core"
	"dqs/internal/exec"
	"dqs/internal/relation"
	"dqs/internal/workload"
)

// testQueries builds n distinct small workload instances with uniform
// deliveries, arriving arrival apart (query i arrives at i*arrival).
func testQueries(t *testing.T, n int, arrival time.Duration) []Query {
	t.Helper()
	queries := make([]Query, n)
	for i := range queries {
		w, err := workload.Fig5Small(int64(i + 1))
		if err != nil {
			t.Fatalf("workload %d: %v", i, err)
		}
		d := make(map[string]exec.Delivery, w.Catalog.Len())
		for _, name := range w.Catalog.Names() {
			d[name] = exec.Delivery{MeanWait: 20 * time.Microsecond}
		}
		queries[i] = Query{
			Label:      fmt.Sprintf("q%d", i),
			Workload:   w,
			Deliveries: d,
			ArriveAt:   time.Duration(i) * arrival,
		}
	}
	return queries
}

// serialRun executes one query alone through core.RunStrategy, the
// single-query path of dqs.Run, under the named strategy.
func serialRun(t testing.TB, cfg exec.Config, q Query, strategy string) exec.Result {
	t.Helper()
	rt, err := exec.NewRuntime(cfg, q.Workload.Root, q.Workload.Dataset, q.Deliveries)
	if err != nil {
		t.Fatalf("serial %q: %v", q.Label, err)
	}
	results, err := core.RunStrategy(rt.Med, []*exec.Runtime{rt}, strategy)
	if err != nil {
		t.Fatalf("serial %q: %v", q.Label, err)
	}
	return results[0]
}

func runServer(t testing.TB, cfg Config, queries []Query) ([]Report, Stats) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for _, q := range queries {
		if err := s.Submit(q); err != nil {
			t.Fatalf("Submit %q: %v", q.Label, err)
		}
	}
	reports, stats, err := s.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return reports, stats
}

// TestIsolatedMatchesSerial is the first oracle: an isolated-mode server's
// per-query Results are byte-identical to serial single-query runs at any
// admission cap — concurrency changes admission timing only — under DSE and
// under the join-network DPHJ alike.
func TestIsolatedMatchesSerial(t *testing.T) {
	queries := testQueries(t, 4, 3*time.Millisecond)
	cfg := exec.DefaultConfig()

	for _, strategy := range []string{"DSE", "DPHJ"} {
		serial := make([]exec.Result, len(queries))
		for i, q := range queries {
			serial[i] = serialRun(t, cfg, q, strategy)
		}
		for _, cap := range []int{1, 2, 8} {
			reports, stats := runServer(t, Config{Exec: cfg, MaxActive: cap, Strategy: strategy}, queries)
			for i, rep := range reports {
				if !rep.Result.Equal(serial[i]) {
					t.Errorf("%s cap=%d query %q: server result differs from serial run\nserver: %v\nserial: %v",
						strategy, cap, rep.Label, rep.Result, serial[i])
				}
				if rep.CompletedAt != rep.AdmittedAt+rep.Result.ResponseTime {
					t.Errorf("%s cap=%d query %q: CompletedAt %v != AdmittedAt %v + response %v",
						strategy, cap, rep.Label, rep.CompletedAt, rep.AdmittedAt, rep.Result.ResponseTime)
				}
			}
			if want := min(cap, len(queries)); stats.PeakActive > want {
				t.Errorf("%s cap=%d: PeakActive %d exceeds cap", strategy, cap, stats.PeakActive)
			}
		}
	}
}

// TestIsolatedCapOrdersAdmissions checks the admission machinery: under a
// cap of one, queries queue (not fail), admissions are serial and waits
// accumulate; the priority discipline reorders the queue.
func TestIsolatedCapOrdersAdmissions(t *testing.T) {
	queries := testQueries(t, 3, 0) // all arrive at t=0
	cfg := exec.DefaultConfig()
	reports, stats := runServer(t, Config{Exec: cfg, MaxActive: 1}, queries)
	var prev time.Duration
	for i, rep := range reports {
		if rep.AdmittedAt < prev {
			t.Errorf("FIFO admissions out of order: %q admitted at %v after %v", rep.Label, rep.AdmittedAt, prev)
		}
		prev = rep.AdmittedAt
		if i == 0 && rep.AdmissionWait != 0 {
			t.Errorf("first query waited %v", rep.AdmissionWait)
		}
		if i > 0 && rep.AdmissionWait == 0 {
			t.Errorf("query %q admitted with zero wait under cap 1", rep.Label)
		}
	}
	if stats.PeakActive != 1 {
		t.Errorf("PeakActive = %d, want 1", stats.PeakActive)
	}
	if stats.PeakQueued == 0 {
		t.Errorf("PeakQueued = 0, want > 0 with 3 queries and cap 1")
	}

	// Priority: the highest-priority query jumps the whole queue (among
	// those arrived when the first slot frees).
	prio := make([]Query, len(queries))
	copy(prio, queries)
	prio[2].Priority = 10
	reports, _ = runServer(t, Config{Exec: cfg, MaxActive: 1, Discipline: Priority}, prio)
	if reports[2].AdmittedAt >= reports[1].AdmittedAt {
		t.Errorf("priority query admitted at %v, after lower-priority %v",
			reports[2].AdmittedAt, reports[1].AdmittedAt)
	}

	// The peaks are quantities of the global timeline: two queries that
	// never overlap are never active together, whatever the cap allows, and
	// a burst queues exactly the arrivals the cap turns away — as the fused
	// server counts them.
	_, stats = runServer(t, Config{Exec: cfg, MaxActive: 2}, testQueries(t, 2, 100*time.Second))
	if stats.PeakActive != 1 {
		t.Errorf("sparse batch: PeakActive = %d, want 1 (the first query completes long before the second arrives)", stats.PeakActive)
	}
	burst := testQueries(t, 5, 0)
	_, stats = runServer(t, Config{Exec: cfg, MaxActive: 2}, burst)
	_, fused := runServer(t, Config{Exec: cfg, MaxActive: 2, Mode: Fused}, burst)
	if stats.PeakQueued != 3 || stats.PeakQueued != fused.PeakQueued {
		t.Errorf("burst batch: PeakQueued = %d (fused %d), want 3", stats.PeakQueued, fused.PeakQueued)
	}
}

// TestFusedMatchesConcurrent is the second oracle: with every query
// arriving at time zero, no binding cap and global fairness, a fused
// server is byte-identical to core.RunStrategy (Engine.Run, the other loop
// over Engine.Step) on one shared mediator — the multiquery experiment's
// execution path.
func TestFusedMatchesConcurrent(t *testing.T) {
	queries := testQueries(t, 3, 0)
	cfg := exec.DefaultConfig()

	med, err := exec.NewMediator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rts := make([]*exec.Runtime, len(queries))
	for i, q := range queries {
		if rts[i], err = med.AddQuery(q.Label, q.Workload.Root, q.Workload.Dataset, q.Deliveries); err != nil {
			t.Fatalf("AddQuery %q: %v", q.Label, err)
		}
	}
	want, err := core.RunStrategy(med, rts, "DSE")
	if err != nil {
		t.Fatal(err)
	}

	reports, _ := runServer(t, Config{Exec: cfg, Mode: Fused}, queries)
	for i, rep := range reports {
		if !rep.Result.Equal(want[i]) {
			t.Errorf("query %q: fused server differs from RunStrategy\nserver: %v\noracle: %v",
				rep.Label, rep.Result, want[i])
		}
	}
}

// TestFusedLateArrivalsComplete exercises mid-run attachment: staggered
// arrivals under a binding cap all complete with output, waits are
// consistent, and admissions respect arrival order.
func TestFusedLateArrivalsComplete(t *testing.T) {
	queries := testQueries(t, 4, 2*time.Millisecond)
	cfg := exec.DefaultConfig()
	reports, stats := runServer(t, Config{Exec: cfg, Mode: Fused, MaxActive: 2}, queries)
	for _, rep := range reports {
		if rep.Result.OutputRows == 0 {
			t.Errorf("query %q produced no output", rep.Label)
		}
		if rep.AdmittedAt < rep.ArrivedAt {
			t.Errorf("query %q admitted at %v before arriving at %v", rep.Label, rep.AdmittedAt, rep.ArrivedAt)
		}
		if rep.CompletedAt < rep.AdmittedAt {
			t.Errorf("query %q completed at %v before admission at %v", rep.Label, rep.CompletedAt, rep.AdmittedAt)
		}
	}
	if stats.PeakActive > 2 {
		t.Errorf("PeakActive %d exceeds cap 2", stats.PeakActive)
	}
}

// TestFusedGovernorLedger asserts the cross-query ledger invariant at
// every scheduling round of a fused run: the holder attributions plus the
// resident-page bytes account for every byte of the shared grant,
// and per-owner holdings sum to the global total. After the last round the
// grant is empty: no finished query keeps a resident page.
func TestFusedGovernorLedger(t *testing.T) {
	queries := testQueries(t, 3, 1*time.Millisecond)
	cfg := exec.DefaultConfig()
	s, err := New(Config{Exec: cfg, Mode: Fused, MaxActive: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range queries {
		if err := s.Submit(q); err != nil {
			t.Fatal(err)
		}
	}
	var lastMed *exec.Mediator
	var lastUsed int64
	rounds := 0
	s.probe = func(med *exec.Mediator) {
		lastMed = med
		rounds++
		held, resident, used := med.Mem.HeldTotal(), med.Mem.ResidentBytes(), med.Mem.Used()
		lastUsed = used
		if held+resident != used {
			t.Fatalf("round %d: ledger mismatch: held %d + resident %d != used %d", rounds, held, resident, used)
		}
		var sum int64
		for _, b := range med.Mem.HoldingsByOwner() {
			sum += b
		}
		if sum != held {
			t.Fatalf("round %d: owner holdings sum %d != held total %d", rounds, sum, held)
		}
	}
	if _, _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if rounds == 0 || lastMed == nil {
		t.Fatal("probe never ran")
	}
	for _, q := range queries {
		if held := lastMed.Mem.HoldingsByOwner()[q.Label]; held != 0 {
			t.Errorf("query %q still holds %d bytes after completion", q.Label, held)
		}
	}
	if lastUsed != 0 {
		t.Errorf("%d grant bytes still in use after the last round", lastUsed)
	}
}

// TestTimeoutCancelIsolated checks that a per-query timeout cancels the
// query at a planning point without corrupting its mediator's ledger, and
// without touching its neighbours.
func TestTimeoutCancelIsolated(t *testing.T) {
	queries := testQueries(t, 2, 0)
	queries[0].Timeout = 50 * time.Microsecond // far below the ~ms full runtime
	cfg := exec.DefaultConfig()

	serial := serialRun(t, cfg, queries[1], "DSE")

	s, err := New(Config{Exec: cfg, MaxActive: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range queries {
		if err := s.Submit(q); err != nil {
			t.Fatal(err)
		}
	}
	meds := make(map[*exec.Mediator]bool)
	s.probe = func(med *exec.Mediator) { meds[med] = true }
	reports, stats, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reports[0].Cancelled {
		t.Errorf("query %q not cancelled (completed at %v)", reports[0].Label, reports[0].CompletedAt)
	}
	if stats.Cancelled != 1 {
		t.Errorf("stats.Cancelled = %d, want 1", stats.Cancelled)
	}
	if reports[1].Cancelled {
		t.Errorf("untimed query %q cancelled", reports[1].Label)
	}
	if !reports[1].Result.Equal(serial) {
		t.Errorf("neighbour of cancelled query diverged from serial run\nserver: %v\nserial: %v",
			reports[1].Result, serial)
	}
	for med := range meds {
		if held := med.Mem.HeldTotal(); held != 0 {
			t.Errorf("mediator still holds %d grant bytes after run", held)
		}
	}
}

// TestTimeoutCancelFused checks cancellation against the shared ledger: the
// cancelled query's holdings return to the grant while the survivors
// complete normally.
func TestTimeoutCancelFused(t *testing.T) {
	queries := testQueries(t, 3, 0)
	queries[1].Timeout = 50 * time.Microsecond
	cfg := exec.DefaultConfig()
	s, err := New(Config{Exec: cfg, Mode: Fused})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range queries {
		if err := s.Submit(q); err != nil {
			t.Fatal(err)
		}
	}
	var lastMed *exec.Mediator
	s.probe = func(med *exec.Mediator) {
		lastMed = med
		if held, resident, used := med.Mem.HeldTotal(), med.Mem.ResidentBytes(), med.Mem.Used(); held+resident != used {
			t.Fatalf("ledger mismatch after cancel: held %d + resident %d != used %d", held, resident, used)
		}
	}
	reports, stats, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reports[1].Cancelled || stats.Cancelled != 1 {
		t.Fatalf("expected exactly query q1 cancelled; reports[1].Cancelled=%v stats.Cancelled=%d",
			reports[1].Cancelled, stats.Cancelled)
	}
	for _, i := range []int{0, 2} {
		if reports[i].Result.OutputRows == 0 {
			t.Errorf("surviving query %q produced no output", reports[i].Label)
		}
	}
	if held := lastMed.Mem.HoldingsByOwner()[queries[1].Label]; held != 0 {
		t.Errorf("cancelled query still holds %d bytes", held)
	}
}

// TestServerDeterminism runs the same fused batch twice: reports must be
// bit-identical.
func TestServerDeterminism(t *testing.T) {
	queries := testQueries(t, 3, 1*time.Millisecond)
	run := func() []Report {
		reports, _ := runServer(t, Config{Exec: exec.DefaultConfig(), Mode: Fused, MaxActive: 2, Fairness: FairRoundRobin}, queries)
		return reports
	}
	base, again := run(), run()
	for i := range base {
		if !reportEqual(base[i], again[i]) {
			t.Errorf("query %q: repeat run differs", base[i].Label)
		}
	}
}

// reportEqual compares two reports field by field (Result carries slices,
// so Report is not ==-comparable).
func reportEqual(a, b Report) bool {
	return a.Label == b.Label &&
		a.Result.Equal(b.Result) &&
		a.ArrivedAt == b.ArrivedAt &&
		a.AdmittedAt == b.AdmittedAt &&
		a.CompletedAt == b.CompletedAt &&
		a.AdmissionWait == b.AdmissionWait &&
		a.Cancelled == b.Cancelled
}

// TestFairnessModes checks that every fairness mode completes with the
// same output rows (fairness biases order, never correctness) and that the
// biased modes are themselves deterministic.
func TestFairnessModes(t *testing.T) {
	queries := testQueries(t, 3, 0)
	rows := make(map[Fairness][]int64)
	for _, f := range []Fairness{FairGlobal, FairRoundRobin, FairWeightedByWait} {
		cfg := exec.DefaultConfig()
		reports, _ := runServer(t, Config{Exec: cfg, Mode: Fused, Fairness: f}, queries)
		for _, rep := range reports {
			rows[f] = append(rows[f], rep.Result.OutputRows)
		}
		again, _ := runServer(t, Config{Exec: cfg, Mode: Fused, Fairness: f}, queries)
		for i := range reports {
			if !reports[i].Result.Equal(again[i].Result) {
				t.Errorf("fairness %v: repeat run differs for %q", f, reports[i].Label)
			}
		}
	}
	for f, r := range rows {
		for i := range r {
			if r[i] != rows[FairGlobal][i] {
				t.Errorf("fairness %v: query %d rows %d != global %d", f, i, r[i], rows[FairGlobal][i])
			}
		}
	}
}

// TestSharedStreamsFused checks that fused queries over the same workload
// object share physical wrapper streams and still produce identical
// per-query output row counts.
func TestSharedStreamsFused(t *testing.T) {
	w, err := workload.Fig5Small(7)
	if err != nil {
		t.Fatal(err)
	}
	d := make(map[string]exec.Delivery, w.Catalog.Len())
	for _, name := range w.Catalog.Names() {
		d[name] = exec.Delivery{MeanWait: 20 * time.Microsecond}
	}
	queries := make([]Query, 3)
	for i := range queries {
		queries[i] = Query{Label: fmt.Sprintf("q%d", i), Workload: w, Deliveries: d}
	}
	cfg := exec.DefaultConfig()
	cfg.SharedStreams = true
	s, err := New(Config{Exec: cfg, Mode: Fused})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range queries {
		if err := s.Submit(q); err != nil {
			t.Fatal(err)
		}
	}
	reports, stats, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats.SharedStreams == 0 {
		t.Fatalf("no streams shared across %d identical queries", len(queries))
	}
	if want := stats.SharedStreams * len(queries); stats.StreamTaps != want {
		t.Errorf("StreamTaps = %d, want %d (%d streams x %d queries)",
			stats.StreamTaps, want, stats.SharedStreams, len(queries))
	}
	for i := 1; i < len(reports); i++ {
		if reports[i].Result.OutputRows != reports[0].Result.OutputRows {
			t.Errorf("query %q rows %d != query %q rows %d: same query over shared streams must agree",
				reports[i].Label, reports[i].Result.OutputRows, reports[0].Label, reports[0].Result.OutputRows)
		}
	}
}

// TestPerQuerySinks checks per-query streaming delivery: each sink sees
// exactly its query's OutputRows tuples.
func TestPerQuerySinks(t *testing.T) {
	queries := testQueries(t, 2, 0)
	counts := make([]int64, len(queries))
	for i := range queries {
		i := i
		queries[i].Sink = exec.SinkFunc(func(time.Duration, relation.Tuple) { counts[i]++ })
	}
	cfg := exec.DefaultConfig()
	reports, _ := runServer(t, Config{Exec: cfg, Mode: Fused}, queries)
	for i, rep := range reports {
		if counts[i] != rep.Result.OutputRows {
			t.Errorf("query %q sink saw %d tuples, result reports %d", rep.Label, counts[i], rep.Result.OutputRows)
		}
	}
}

// TestSubmitValidation covers the submission error paths.
func TestSubmitValidation(t *testing.T) {
	cfg := exec.DefaultConfig()
	s, err := New(Config{Exec: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Run(); err == nil {
		t.Error("empty batch ran")
	}
	w, err := workload.Fig5Small(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Submit(Query{Workload: w}); err == nil {
		t.Error("empty label accepted")
	}
	if err := s.Submit(Query{Label: "q"}); err == nil {
		t.Error("nil workload accepted")
	}
	if err := s.Submit(Query{Label: "q", Workload: w}); err != nil {
		t.Errorf("valid query rejected: %v", err)
	}
	if err := s.Submit(Query{Label: "q", Workload: w}); err == nil {
		t.Error("duplicate label accepted")
	}
	if _, err := New(Config{Exec: cfg, Mode: Mode(42)}); err == nil {
		t.Error("invalid mode accepted")
	}
	bad := cfg
	bad.QueueTuples = 0
	if _, err := New(Config{Exec: bad, Mode: Fused}); err == nil {
		t.Error("invalid execution config accepted")
	}
	// A strategy the server cannot build an engine from fails at New, not at
	// the first admission inside Run.
	for _, mode := range []Mode{Isolated, Fused} {
		_, err := New(Config{Exec: cfg, Mode: mode, Strategy: "NOPE"})
		if want := `unknown strategy "NOPE" (registered: SEQ, MA, DSE,`; err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%v server, strategy NOPE: New error = %v, want %q", mode, err, want)
		}
	}
	shared := cfg
	shared.SharedStreams = true
	if _, err := New(Config{Exec: shared, Mode: Isolated}); err == nil {
		t.Error("isolated + shared streams accepted")
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
