package dqs

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"dqs/internal/exec"
	"dqs/internal/sim"
	"dqs/internal/source"
)

func TestRunSpecValidation(t *testing.T) {
	if _, err := Run(RunSpec{}); err == nil {
		t.Error("nil workload accepted")
	}
	w, err := Fig5Small(1)
	if err != nil {
		t.Fatal(err)
	}
	spec := RunSpec{Workload: w, Config: DefaultConfig(), Strategy: "NOPE"}
	if _, err := Run(spec); err == nil || !strings.Contains(err.Error(), "unknown strategy") {
		t.Errorf("unknown strategy: err = %v", err)
	}
	bad := DefaultConfig()
	bad.BatchTuples = -1
	if _, err := Run(RunSpec{Workload: w, Config: bad, Strategy: SEQ}); err == nil {
		t.Error("invalid config accepted")
	}
	// A phase whose [0, 2w] draw interval overflows a time.Duration is a
	// named error from the library too, not a panic at the first draw.
	del := UniformDeliveries(w, 20*time.Microsecond)
	del["B"] = Delivery{Phases: []source.Phase{{FromRow: 0, W: sim.MaxWait + 1}}}
	_, err = Run(RunSpec{Workload: w, Config: DefaultConfig(), Strategy: DSE, Deliveries: del})
	if !errors.Is(err, sim.ErrWaitTooLarge) || !strings.Contains(err.Error(), `"B"`) {
		t.Errorf("overflowing phase wait: err = %v, want ErrWaitTooLarge naming the source", err)
	}
}

func TestUniformDeliveriesCoversEveryWrapper(t *testing.T) {
	w, err := Fig5Small(1)
	if err != nil {
		t.Fatal(err)
	}
	del := UniformDeliveries(w, 20*time.Microsecond)
	if len(del) != 6 {
		t.Fatalf("got %d deliveries", len(del))
	}
	for _, name := range Relations(w) {
		if del[name].MeanWait != 20*time.Microsecond {
			t.Errorf("%s wait = %v", name, del[name].MeanWait)
		}
	}
}

func TestRenderHelpers(t *testing.T) {
	w, err := Fig5Small(1)
	if err != nil {
		t.Fatal(err)
	}
	if out := RenderPlan(w); !strings.Contains(out, "hash-join") {
		t.Errorf("RenderPlan = %q", out)
	}
	chains, err := RenderChains(w)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"p_A", "p_B", "p_C", "p_D", "p_E", "p_F"} {
		if !strings.Contains(chains, want) {
			t.Errorf("RenderChains missing %s", want)
		}
	}
}

func TestCardinalityLookup(t *testing.T) {
	w, err := Fig5Small(1)
	if err != nil {
		t.Fatal(err)
	}
	n, err := Cardinality(w, "A")
	if err != nil || n != 15000 {
		t.Errorf("Cardinality(A) = %d, %v", n, err)
	}
	if _, err := Cardinality(w, "Z"); err == nil {
		t.Error("unknown relation accepted")
	}
	if got := ExpectedRows(w); got <= 0 {
		t.Errorf("ExpectedRows = %v", got)
	}
}

// TestRunConcurrentValidation: running queries concurrently on one shared
// mediator (a fused server) refuses an empty batch, an empty or duplicate
// label, a missing workload and an invalid execution config.
func TestRunConcurrentValidation(t *testing.T) {
	w, err := Fig5Small(1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	mk := func(label string) ServerQuery {
		return ServerQuery{Label: label, Workload: w, Deliveries: UniformDeliveries(w, time.Microsecond)}
	}
	srv, err := NewServer(ServerConfig{Exec: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := srv.Run(); err == nil {
		t.Error("empty query list accepted")
	}
	if err := srv.Submit(mk("")); err == nil {
		t.Error("empty label accepted")
	}
	if err := srv.Submit(ServerQuery{Label: "a"}); err == nil {
		t.Error("nil workload accepted")
	}
	if err := srv.Submit(mk("a")); err != nil {
		t.Fatal(err)
	}
	if err := srv.Submit(mk("a")); err == nil {
		t.Error("duplicate labels accepted")
	}
	bad := cfg
	bad.QueueTuples = 0
	if _, err := NewServer(ServerConfig{Exec: bad}); err == nil {
		t.Error("invalid config accepted")
	}
}

// TestFusedServerSingleQueryMatchesRun: a fused server running one query
// is a serial Run on the server's own mediator, so every Result field
// agrees.
func TestFusedServerSingleQueryMatchesRun(t *testing.T) {
	w, err := Fig5Small(1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	del := UniformDeliveries(w, 20*time.Microsecond)
	single, err := Run(RunSpec{Workload: w, Config: cfg, Strategy: DSE, Deliveries: del})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(ServerConfig{Exec: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Submit(ServerQuery{Label: "only", Workload: w, Deliveries: del}); err != nil {
		t.Fatal(err)
	}
	reports, _, err := srv.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reports[0].Result.Equal(single) {
		t.Errorf("fused single query differs from Run:\n%v\n%v", reports[0].Result, single)
	}
}

// TestNegativeInitialDelayIsRefused: a negative Delivery.InitialDelay is the
// wrapper's named error under every strategy and on a shared-streams fused
// server, never a silent zero.
func TestNegativeInitialDelayIsRefused(t *testing.T) {
	w, err := Fig5Small(1)
	if err != nil {
		t.Fatal(err)
	}
	del := UniformDeliveries(w, 20*time.Microsecond)
	del["B"] = Delivery{MeanWait: 20 * time.Microsecond, InitialDelay: -time.Second}
	const want = `source "B": negative initial delay`
	for _, s := range AllStrategies() {
		_, err := Run(RunSpec{Workload: w, Config: DefaultConfig(), Strategy: s, Deliveries: del})
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: err = %v, want %q", s, err, want)
		}
	}
	cfg := DefaultConfig()
	cfg.SharedStreams = true
	srv, err := NewServer(ServerConfig{Exec: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Submit(ServerQuery{Label: "q", Workload: w, Deliveries: del}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := srv.Run(); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("shared-streams fused server: err = %v, want %q", err, want)
	}
}

// TestUnknownDeliveryIsRefused: a Deliveries key naming no relation the
// query scans is refused by name through Run and through a server, never
// ignored (a misspelled wrapper would otherwise get instantaneous delivery).
func TestUnknownDeliveryIsRefused(t *testing.T) {
	w, err := Fig5Small(1)
	if err != nil {
		t.Fatal(err)
	}
	del := UniformDeliveries(w, 20*time.Microsecond)
	del["Zzz"] = Delivery{MeanWait: time.Millisecond}
	const want = `exec: delivery for unknown relation "Zzz"`
	_, err = Run(RunSpec{Workload: w, Config: DefaultConfig(), Strategy: DSE, Deliveries: del})
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("Run: err = %v, want %q", err, want)
	}
	srv, err := NewServer(ServerConfig{Exec: DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Submit(ServerQuery{Label: "q", Workload: w, Deliveries: del}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := srv.Run(); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("Server.Run: err = %v, want %q", err, want)
	}
}

func TestStrategiesOrder(t *testing.T) {
	s := Strategies()
	if len(s) != 3 || s[0] != SEQ || s[1] != MA || s[2] != DSE {
		t.Errorf("Strategies = %v", s)
	}
}

func TestLowerBoundPositive(t *testing.T) {
	w, err := Fig5Small(1)
	if err != nil {
		t.Fatal(err)
	}
	lwb, err := LowerBound(RunSpec{
		Workload:   w,
		Config:     DefaultConfig(),
		Deliveries: UniformDeliveries(w, 20*time.Microsecond),
	})
	if err != nil {
		t.Fatal(err)
	}
	if lwb <= 0 {
		t.Errorf("LWB = %v", lwb)
	}
}

// tracedRun executes the spec with a fresh trace attached and returns the
// result with the SHA-256 of the rendered trace.
func tracedRun(spec RunSpec) (Result, [sha256.Size]byte, error) {
	tr := &sim.Trace{}
	spec.Config.Trace = tr
	res, err := Run(spec)
	if err != nil {
		return Result{}, [sha256.Size]byte{}, err
	}
	var buf bytes.Buffer
	if err := tr.Dump(&buf); err != nil {
		return Result{}, [sha256.Size]byte{}, err
	}
	return res, sha256.Sum256(buf.Bytes()), nil
}

// TestDecompositionCacheIsInvisible: Config.Plans only memoizes structure,
// so a run through a shared decomposition cache must equal the uncached run
// in trace bytes and in every Result field but the two lookup counters — a
// miss on first use, a hit after.
func TestDecompositionCacheIsInvisible(t *testing.T) {
	w, err := Fig5Small(1)
	if err != nil {
		t.Fatal(err)
	}
	del := UniformDeliveries(w, 20*time.Microsecond)
	del["A"] = Delivery{MeanWait: 100 * time.Microsecond}
	spec := RunSpec{Workload: w, Config: DefaultConfig(), Strategy: DSE, Deliveries: del}
	spec.Config.MemoryBytes = 2 << 20
	want, wantSum, err := tracedRun(spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.Config.Plans = NewDecompositionCache()
	for i, counts := range [][2]int{{0, 1}, {1, 0}} {
		got, sum, err := tracedRun(spec)
		if err != nil {
			t.Fatal(err)
		}
		if hits, misses := got.PlanCacheHits, got.PlanCacheMisses; hits != counts[0] || misses != counts[1] {
			t.Errorf("cached run %d: hits=%d misses=%d, want %d/%d", i, hits, misses, counts[0], counts[1])
		}
		got.PlanCacheHits, got.PlanCacheMisses = 0, 0
		if !got.Equal(want) {
			t.Errorf("cached run %d diverged:\nuncached: %+v\ncached:   %+v", i, want, got)
		}
		if sum != wantSum {
			t.Errorf("cached run %d: trace bytes differ from the uncached run", i)
		}
	}
}

// TestPooledRunIsDeterministicUnderReuse pins the pooling contract on the
// public path: every mediator draws its storage from one process-wide pool,
// so a run inherits whatever capacity and build-row hints earlier runs left
// there. The same spec — a DSE run, and a DPHJ run whose join network draws
// twice the tables — must give the same Result and the same trace bytes
// first, after foreign runs of every shape have been through the pool, and
// from several goroutines at once.
func TestPooledRunIsDeterministicUnderReuse(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full-scale Fig5")
	}
	small, err := Fig5Small(1)
	if err != nil {
		t.Fatal(err)
	}
	del := UniformDeliveries(small, 20*time.Microsecond)
	del["A"] = Delivery{MeanWait: 60 * time.Microsecond}
	specs := []RunSpec{
		{Workload: small, Config: DefaultConfig(), Strategy: DSE, Deliveries: del},
		{Workload: small, Config: DefaultConfig(), Strategy: DPHJ, Deliveries: del},
	}
	firsts := make([]Result, len(specs))
	firstSums := make([][sha256.Size]byte, len(specs))
	for i, spec := range specs {
		if firsts[i], firstSums[i], err = tracedRun(spec); err != nil {
			t.Fatal(err)
		}
	}

	// Foreign runs: larger tables and arenas, other strategies' temps, a
	// tight grant, and many queries on one mediator.
	full, err := Fig5(2)
	if err != nil {
		t.Fatal(err)
	}
	foreign := []RunSpec{
		{Workload: full, Config: DefaultConfig(), Strategy: MA, Deliveries: UniformDeliveries(full, 20*time.Microsecond)},
		{Workload: full, Config: DefaultConfig(), Strategy: SCR, Deliveries: UniformDeliveries(full, 20*time.Microsecond)},
		{Workload: small, Config: DefaultConfig(), Strategy: DSE, Deliveries: del},
	}
	foreign[2].Config.MemoryBytes = 1600 << 10
	for i, f := range foreign {
		if _, err := Run(f); err != nil {
			t.Fatalf("foreign run %d: %v", i, err)
		}
	}
	for _, shared := range []bool{true, false} {
		cfg := DefaultConfig()
		cfg.SharedStreams = shared
		srv, err := NewServer(ServerConfig{Exec: cfg, MaxActive: 4})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 16; i++ {
			q := ServerQuery{
				Label:      fmt.Sprintf("q%d", i),
				Workload:   small,
				Deliveries: UniformDeliveries(small, 50*time.Microsecond),
				ArriveAt:   time.Duration(i) * time.Millisecond,
			}
			if err := srv.Submit(q); err != nil {
				t.Fatal(err)
			}
		}
		if _, _, err := srv.Run(); err != nil {
			t.Fatalf("server batch (shared streams %v): %v", shared, err)
		}
	}

	check := func(when string, k int, res Result, sum [sha256.Size]byte) {
		if !res.Equal(firsts[k]) {
			t.Errorf("%s: result diverged from the first run\nfirst: %v\nnow:   %v", when, firsts[k], res)
		}
		if sum != firstSums[k] {
			t.Errorf("%s: trace SHA-256 %x, first run %x", when, sum, firstSums[k])
		}
	}
	for k, spec := range specs {
		res, sum, err := tracedRun(spec)
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("%s after foreign runs", spec.Strategy), k, res, sum)
	}

	type outcome struct {
		res Result
		sum [sha256.Size]byte
		err error
	}
	outs := make([]outcome, 8)
	var wg sync.WaitGroup
	for i := range outs {
		wg.Add(1)
		go func(o *outcome, spec RunSpec) {
			defer wg.Done()
			o.res, o.sum, o.err = tracedRun(spec)
		}(&outs[i], specs[i%len(specs)])
	}
	wg.Wait()
	for i, o := range outs {
		if o.err != nil {
			t.Fatalf("concurrent run %d: %v", i, o.err)
		}
		k := i % len(specs)
		check(fmt.Sprintf("%s concurrent run %d", specs[k].Strategy, i), k, o.res, o.sum)
	}
}

// TestRunIsSingleGoroutine pins that a run never leaves its caller's
// goroutine, whatever Config.Workers says: the field is kept for bench/ and
// read by nothing. Instantaneous deliveries hand the engine full 256-slot
// batches — the shape the deleted worker pool engaged on — and the sink,
// called mid-phase, must never see a goroutine the caller did not have.
func TestRunIsSingleGoroutine(t *testing.T) {
	w, err := Fig5Small(1)
	if err != nil {
		t.Fatal(err)
	}
	spec := RunSpec{Workload: w, Config: DefaultConfig(), Strategy: DSE}
	want, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	base, peak := runtime.NumGoroutine(), 0
	spec.Config.Workers = 8
	spec.Config.Stream = SinkFunc(func(time.Duration, Tuple) {
		if n := runtime.NumGoroutine(); n > peak {
			peak = n
		}
	})
	got, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if got.OutputRows == 0 || peak != base {
		t.Errorf("Workers=8 run emitted %d rows with a goroutine peak of %d, %d before the run", got.OutputRows, peak, base)
	}
	if !got.Equal(want) {
		t.Errorf("Workers=8 diverged from Workers=0:\n0: %+v\n8: %+v", want, got)
	}
}

// TestPooledRunReusesStorage keeps the public path on the pooled allocator:
// a Run that finds the pool warm allocates a small fraction of the bytes of
// one that finds it empty (about 3% on this spec).
func TestPooledRunReusesStorage(t *testing.T) {
	w, err := Fig5Small(1)
	if err != nil {
		t.Fatal(err)
	}
	spec := RunSpec{Workload: w, Config: DefaultConfig(), Strategy: DSE, Deliveries: UniformDeliveries(w, 20*time.Microsecond)}
	allocated := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := Run(spec); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	// A mediator of our own, never reclaimed, takes the last reclaimed
	// Scratch, and the sync.Pool forgets what two collections in a row leave
	// untouched, so the next run starts from nothing; the run after it gets
	// that run's Scratch back.
	if _, err := exec.NewMediator(DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.GC()
	cold := allocated()
	warm := allocated()
	t.Logf("cold Run %d bytes, warm Run %d bytes", cold, warm)
	if warm > cold/4 {
		t.Errorf("a warm Run allocates %d bytes, a cold one %d: the public path is not reusing pooled storage", warm, cold)
	}
}

// TestFusedServerReusesStorage keeps the fused server on the pooled
// allocator: a batch of the repo benchmark's serve_fused shape — 16 queries
// under shared streams, half of them on one shared Fig5Small instance, four
// at a time, every fourth with a timeout — allocates, on the third batch
// after a cold start, at most a tenth of the cold batch's bytes, and reports
// byte-identical results. The test runs the batches back to back, so a
// warm-up of a few batches has to reach the steady state.
func TestFusedServerReusesStorage(t *testing.T) {
	shared, err := Fig5Small(1)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Run(RunSpec{Workload: shared, Config: DefaultConfig(), Strategy: DSE,
		Deliveries: UniformDeliveries(shared, 50*time.Microsecond)})
	if err != nil {
		t.Fatal(err)
	}
	queries := make([]ServerQuery, 16)
	for i := range queries {
		w := shared
		if i%2 == 1 {
			if w, err = Fig5Small(int64(2 + i/2)); err != nil {
				t.Fatal(err)
			}
		}
		queries[i] = ServerQuery{
			Label:      fmt.Sprintf("q%02d", i),
			Workload:   w,
			Deliveries: UniformDeliveries(w, 50*time.Microsecond),
			ArriveAt:   time.Duration(i) * ref.BusyTime / 2,
		}
		if i%4 == 3 {
			queries[i].Timeout = ref.ResponseTime * 3 / 2
		}
	}
	cfg := DefaultConfig()
	cfg.SharedStreams = true
	batch := func() ([]ServerReport, uint64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		srv, err := NewServer(ServerConfig{Exec: cfg, MaxActive: 4})
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range queries {
			if err := srv.Submit(q); err != nil {
				t.Fatal(err)
			}
		}
		reports, _, err := srv.Run()
		if err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return reports, after.TotalAlloc - before.TotalAlloc
	}
	// As in TestPooledRunReusesStorage: a mediator never reclaimed holds the
	// last reclaimed Scratch and two collections empty the sync.Pool.
	if _, err := exec.NewMediator(DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.GC()
	cold, coldBytes := batch()
	var warm []ServerReport
	var warmBytes uint64
	for i := 0; i < 3; i++ {
		warm, warmBytes = batch()
	}
	t.Logf("cold batch %d bytes, third warm batch %d bytes (%.1f%%)", coldBytes, warmBytes, 100*float64(warmBytes)/float64(coldBytes))
	if warmBytes > coldBytes/10 {
		t.Errorf("the third warm batch allocates %d bytes, the cold one %d: more than a tenth", warmBytes, coldBytes)
	}
	cancelled := 0
	for i := range cold {
		c, w := cold[i], warm[i]
		if !w.Result.Equal(c.Result) || w.ArrivedAt != c.ArrivedAt || w.Cancelled != c.Cancelled {
			t.Errorf("%s: warm report differs from the cold one\ncold: %+v\nwarm: %+v", c.Label, c, w)
		}
		if c.Cancelled {
			cancelled++
		}
	}
	if cancelled == 0 {
		t.Error("no query timed out: the batch does not exercise cancellation")
	}
}

// TestOversizedWindowsAreRefusedOrBounded: a DQP batch far beyond any
// window runs chain-at-a-time — every strategy returns what it returns at
// the default — and a wrapper window the ring could never allocate is a
// named error from Run and NewServer, not a dead process.
func TestOversizedWindowsAreRefusedOrBounded(t *testing.T) {
	w, err := Fig5Small(1)
	if err != nil {
		t.Fatal(err)
	}
	del := UniformDeliveries(w, 20*time.Microsecond)
	for _, s := range []Strategy{SEQ, MA, SCR, DSE, DPHJ} {
		spec := RunSpec{Workload: w, Config: DefaultConfig(), Strategy: s, Deliveries: del}
		want, err := Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		spec.Config.BatchTuples = 1 << 40
		got, err := Run(spec)
		if err != nil {
			t.Fatalf("%s at BatchTuples=2^40: %v", s, err)
		}
		if got.OutputRows != want.OutputRows {
			t.Errorf("%s: %d rows at BatchTuples=2^40, %d at the default", s, got.OutputRows, want.OutputRows)
		}
	}
	cfg := DefaultConfig()
	cfg.QueueTuples = 1 << 40
	named := func(what string, err error) {
		if err == nil || !strings.Contains(err.Error(), "QueueTuples") || !strings.Contains(err.Error(), "1048576") {
			t.Errorf("%s with QueueTuples=2^40: err = %v, want one naming QueueTuples and its bound", what, err)
		}
	}
	_, err = Run(RunSpec{Workload: w, Config: cfg, Strategy: DSE, Deliveries: del})
	named("Run", err)
	_, err = NewServer(ServerConfig{Exec: cfg})
	named("NewServer", err)
}
