package experiment

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"dqs/internal/exec"
	"dqs/internal/fault"
	"dqs/internal/plan"
	"dqs/internal/reftest"
	"dqs/internal/relation"
	"dqs/internal/server"
	"dqs/internal/source"
	"dqs/internal/workload"
)

// updateGoldens refreshes the committed strategy goldens. The goldens pin
// the exact per-run results, traces and figure bytes of the execution
// engine: regenerate them only for a deliberate, explained behaviour change.
var updateGoldens = flag.Bool("update-goldens", false, "rewrite testdata strategy goldens")

// goldenStrategies are the strategies of the golden grid: every built-in
// policy, the symmetric-join network of the delay-class figure included.
var goldenStrategies = []string{"SEQ", "MA", "SCR", "DSE", "DPHJ"}

// goldenDeliveries builds the two delay classes of §1.2 the grid runs under
// an ample grant — a slow-delivery wrapper and a bursty one — which stress
// the window protocol from both sides (steady back-pressure vs. alternating
// famine and flood).
func goldenDeliveries(cfg exec.Config, o Options) map[string]func(w *workload.Workload) map[string]exec.Delivery {
	return map[string]func(w *workload.Workload) map[string]exec.Delivery{
		"slow-delivery": func(w *workload.Workload) map[string]exec.Delivery {
			d := uniformDeliveries(w, cfg.InitialWaitEstimate)
			d["A"] = exec.Delivery{MeanWait: 10 * cfg.InitialWaitEstimate}
			return d
		},
		"bursty": func(w *workload.Workload) map[string]exec.Delivery {
			d := uniformDeliveries(w, cfg.InitialWaitEstimate)
			card := o.cardOf("C")
			var phases []source.Phase
			chunk := card / 6
			for row, fast := 0, true; row < card; row, fast = row+chunk, !fast {
				wph := 5 * time.Microsecond
				if !fast {
					wph = 300 * time.Microsecond
				}
				phases = append(phases, source.Phase{FromRow: row, W: wph})
			}
			d["C"] = exec.Delivery{Phases: phases}
			return d
		},
	}
}

// goldenClass is one row block of the golden grid: a configuration and the
// deliveries it runs under. engaged, when set, says whether a DSE result
// shows the machinery the class exists to drive; a class that stops
// engaging it has lost its point.
type goldenClass struct {
	name    string
	cfg     exec.Config
	mk      func(w *workload.Workload) map[string]exec.Delivery
	engaged func(res exec.Result) bool
}

// goldenClasses is the grid's scenario axis: both delay classes, the
// ablation study's 2 MiB pressure point (strand, mid-batch UnpopN, temp
// spill), a 1 MiB grant (suspensions, memory-repair splits at planning
// points, temps written through), a fault plan covering every failure
// class — transient stall, burst storm, disconnect/reconnect and a death
// with replica failover — a death without a replica under PartialResults,
// two wrappers dying without replicas under PartialResults, and the
// ablation study's deliveries (one moderately slowed wrapper) at an
// ample grant and at 2 MiB.
func goldenClasses(t *testing.T, o Options) []goldenClass {
	t.Helper()
	base := exec.DefaultConfig()
	uniform := func(w *workload.Workload) map[string]exec.Delivery {
		return uniformDeliveries(w, base.InitialWaitEstimate)
	}
	var classes []goldenClass
	for name, mk := range goldenDeliveries(base, o) {
		classes = append(classes, goldenClass{name: name, cfg: base, mk: mk})
	}
	repaired := func(res exec.Result) bool { return res.MemRepairs > 0 }
	degraded := func(res exec.Result) bool { return len(res.DegradedFragments) > 0 }
	for _, m := range []struct {
		name    string
		bytes   int64
		engaged func(exec.Result) bool
	}{{"mem-2MiB", 2 << 20, nil}, {"mem-1MiB", 1 << 20, repaired}} {
		cfg := base
		cfg.MemoryBytes = m.bytes
		classes = append(classes, goldenClass{m.name, cfg, uniform, m.engaged})
	}
	for _, g := range []struct {
		name  string
		bytes int64
	}{{"ablation", base.MemoryBytes}, {"ablation-2MiB", 2 << 20}} {
		cfg := base
		cfg.MemoryBytes = g.bytes
		classes = append(classes, goldenClass{name: g.name, cfg: cfg, mk: o.ablationDeliveries(cfg)})
	}
	at := func(rel string, frac float64) int { return int(frac * float64(o.cardOf(rel))) }
	faults := fmt.Sprintf("C:stall@%d+%v;C:burst@%d+%dx300us;D:drop@%d+%v;A:kill@%d",
		at("C", 0.10), 20*time.Millisecond, at("C", 0.30), at("C", 0.20),
		at("D", 0.50), 8*time.Millisecond, at("A", 0.60))
	// Two deaths pin the silence detector across wrappers: de-duplicating
	// the silent ones and probing the earliest due first.
	bothDead := func(res exec.Result) bool {
		var a, d bool
		for _, l := range res.DegradedFragments {
			a = a || strings.Contains(l, "p_A")
			d = d || strings.Contains(l, "p_D")
		}
		return a && d
	}
	for _, f := range []struct {
		name, spec string
		engaged    func(exec.Result) bool
	}{
		{"faults", faults + fmt.Sprintf(";A:replica,connect=%v", time.Millisecond), nil},
		{"faults-partial", faults, degraded},
		{"faults-two-deaths", fmt.Sprintf("A:kill@%d;D:kill@%d", at("A", 0.60), at("D", 0.50)), bothDead},
	} {
		p, err := fault.Parse(f.spec)
		if err != nil {
			t.Fatal(err)
		}
		cfg := base
		cfg.Faults = p
		cfg.PartialResults = f.engaged != nil
		classes = append(classes, goldenClass{f.name, cfg, uniform, f.engaged})
	}
	sort.Slice(classes, func(i, j int) bool { return classes[i].name < classes[j].name })
	return classes
}

// liveOutputColumns returns the positions of the plan's output schema that
// carry data: the join keys and scan-predicate columns. Everything else is
// projected away at the wrapper and reads zero in the engine's output.
func liveOutputColumns(root *plan.Node) []int {
	live := make(map[relation.ColRef]bool)
	dec, err := plan.Decompose(root)
	if err != nil {
		panic(err)
	}
	for _, j := range dec.Joins {
		live[j.BuildKey], live[j.ProbeKey] = true, true
	}
	for _, s := range plan.Scans(root) {
		if s.Pred != nil {
			live[s.Pred.Col] = true
		}
	}
	var cols []int
	for i, c := range root.Schema.Cols {
		if live[c] {
			cols = append(cols, i)
		}
	}
	return cols
}

// TestProjectedAwayColumnsStreamZero pins what a Sink sees at the output
// positions the wrappers project away (every Fig5 relation's id): zero, in
// every tuple, under every strategy on Fig5Small with A slowed, and under
// DSE at a 1 MiB grant, where degraded chains and memory-repair splits feed
// their results through temps. The answer goldens compare live columns only,
// so without this nothing would pin those positions.
func TestProjectedAwayColumnsStreamZero(t *testing.T) {
	o := Options{Small: true}
	w, err := o.loadWorkload(1)
	if err != nil {
		t.Fatal(err)
	}
	live := make(map[int]bool)
	for _, i := range liveOutputColumns(w.Root) {
		live[i] = true
	}
	var dead []int
	for i := range w.Root.Schema.Cols {
		if !live[i] {
			dead = append(dead, i)
		}
	}
	if len(dead) < 6 {
		t.Fatalf("dead output positions %v: want at least every relation's id", dead)
	}
	base := exec.DefaultConfig()
	slow := goldenDeliveries(base, o)["slow-delivery"](w)
	tight := base
	tight.MemoryBytes = 1 << 20
	type cell struct {
		name, strategy string
		cfg            exec.Config
	}
	var cells []cell
	for _, s := range goldenStrategies {
		cells = append(cells, cell{s, s, base})
	}
	cells = append(cells, cell{"DSE/1MiB", "DSE", tight})
	for _, c := range cells {
		var n, bad int64
		c.cfg.Stream = exec.SinkFunc(func(_ time.Duration, tup relation.Tuple) {
			n++
			for _, i := range dead {
				if tup[i] != 0 {
					bad++
					break
				}
			}
		})
		res, _, _, err := runTraced(t, w, c.cfg, slow, c.strategy, false)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if n == 0 || n != res.OutputRows {
			t.Errorf("%s: sink saw %d tuples, result says %d", c.name, n, res.OutputRows)
		}
		if bad > 0 {
			t.Errorf("%s: %d of %d streamed tuples are non-zero at a projected-away position", c.name, bad, n)
		}
		if c.name == "DSE/1MiB" && (res.Degradations == 0 || res.MemRepairs == 0) {
			t.Errorf("%s: no degradation or no memory repair: %+v", c.name, res)
		}
		t.Logf("%s: %d tuples, %d degradations, %d repairs, %d materialized", c.name, n, res.Degradations, res.MemRepairs, res.MaterializedTuples)
	}
}

// tupleBag is a multiset of tuples projected onto a fixed column list.
type tupleBag struct {
	cols  []int
	count map[string]int
	n     int
	key   []byte
}

func newTupleBag(cols []int) *tupleBag {
	return &tupleBag{cols: cols, count: make(map[string]int)}
}

func (b *tupleBag) add(t relation.Tuple) {
	b.key = b.key[:0]
	for _, c := range b.cols {
		b.key = append(strconv.AppendInt(b.key, t[c], 10), ',')
	}
	b.count[string(b.key)]++
	b.n++
}

// excess counts the tuples of b beyond their multiplicity in ref.
func (b *tupleBag) excess(ref *tupleBag) int {
	x := 0
	for k, n := range b.count {
		if d := n - ref.count[k]; d > 0 {
			x += d
		}
	}
	return x
}

// TestStrategyResultsMatchGolden pins every strategy × seed × scenario of
// the golden grid against the committed goldens: the full Result plus a
// digest of the rendered trace, so a change to any scheduling order, stall
// instant, counter or trace line shows up as a diff in some run. Cells a
// strategy cannot run (a grant too small) pin their error. Each run's streamed output is also checked as a
// tuple multiset, over the plan's live columns, against the reference
// evaluator: equal for complete runs, contained in it under PartialResults.
//
// strategy_results.golden is the original grid (delay classes × policy
// strategies, summary fields only); strategy_grid.golden is the whole grid.
func TestStrategyResultsMatchGolden(t *testing.T) {
	o := Options{Small: true}
	seeds := []int64{1, 2, 3}
	workloads := make(map[int64]*workload.Workload)
	reference := make(map[int64]*tupleBag)
	for _, seed := range seeds {
		w, err := o.loadWorkload(seed)
		if err != nil {
			t.Fatal(err)
		}
		ref := newTupleBag(liveOutputColumns(w.Root))
		for _, tup := range reftest.Eval(w.Root, w.Dataset) {
			ref.add(tup)
		}
		workloads[seed], reference[seed] = w, ref
	}

	var legacy, grid, work bytes.Buffer
	for _, class := range goldenClasses(t, o) {
		for _, strategy := range goldenStrategies {
			for _, seed := range seeds {
				w, ref := workloads[seed], reference[seed]
				cell := fmt.Sprintf("%s/%s/seed%d", class.name, strategy, seed)
				out := newTupleBag(ref.cols)
				cfg := class.cfg
				cfg.Seed = seed
				cfg.Stream = exec.SinkFunc(func(_ time.Duration, tup relation.Tuple) { out.add(tup) })
				res, trace, _, err := runTraced(t, w, cfg, class.mk(w), strategy, false)
				line := fmt.Sprintf("%s: error: %v\n", cell, err)
				if err == nil {
					if x := out.excess(ref); x > 0 || (out.n != ref.n && !cfg.PartialResults) {
						t.Errorf("%s: streamed %d tuples, %d of them not in the reference evaluator's %d",
							cell, out.n, x, ref.n)
					}
					if strategy == "DSE" && class.engaged != nil && !class.engaged(res) {
						t.Errorf("%s: the class lost its point: %+v", cell, res)
					}
					// Every Result field is spelled out: the golden must catch a
					// drift in any counter, not only the String() summary.
					summary := fmt.Sprintf(
						"%s: strat=%s resp=%d busy=%d idle=%d out=%d disk=%+v peak=%d mat=%d replans=%d degr=%d timeouts=%d memrep=%d maxerr=%.9f",
						cell, res.Strategy,
						res.ResponseTime.Nanoseconds(), res.BusyTime.Nanoseconds(), res.IdleTime.Nanoseconds(),
						res.OutputRows, res.Disk, res.PeakMemBytes, res.MaterializedTuples,
						res.Replans, res.Degradations, res.Timeouts, res.MemRepairs, res.MaxEstError)
					if strategy != "DPHJ" && (class.name == "bursty" || class.name == "slow-delivery") {
						legacy.WriteString(summary + "\n")
					}
					line = fmt.Sprintf("%s first=%d timeline=%v degraded=%v plancache=%d/%d trace=%x\n",
						summary, res.FirstTupleTime.Nanoseconds(), res.TupleTimeline, res.DegradedFragments,
						res.PlanCacheHits, res.PlanCacheMisses, sha256.Sum256(trace))
					work.WriteString(workLine(t, cell, res.Work))
				}
				grid.WriteString(line)
			}
		}
	}
	work.WriteString(workLine(t, "serve_fused/seed1", fusedBatchWork(t, 1)))
	compareGolden(t, "strategy_results.golden", legacy.Bytes())
	compareGolden(t, "strategy_grid.golden", grid.Bytes())
	compareGolden(t, "work.golden", work.Bytes())
}

// workLine renders one cell's loop and join counters for work.golden, the
// exact currency a change to the scheduling loop or the join kernels is
// weighed in: a change that moves the engine's work re-records it, and its
// per-counter diff is the claim. The engine must not visit a CM queue that has nothing due beyond
// one look per Observe.
func workLine(t *testing.T, cell string, w exec.Work) string {
	t.Helper()
	if w.Visits > w.Observes+w.Due {
		t.Errorf("%s: %d CM queue visits over %d Observes that found %d queues due", cell, w.Visits, w.Observes, w.Due)
	}
	return fmt.Sprintf("%s: iters=%d stalls=%d empty-asks=%d plans=%d observes=%d visits=%d due=%d judges=%d available=%d replays=%d heads=%d chain=%d copied=%d\n",
		cell, w.Iterations, w.Stalls, w.EmptyAsks, w.PlanningPoints,
		w.Observes, w.Visits, w.Due, w.Judges, w.Available, w.Replays,
		w.HeadLookups, w.ChainSteps, w.ValuesCopied)
}

// fusedBatchWork runs one dqs server batch of the repo benchmark's
// serve_fused shape — 16 Fig5Small queries, half of them on one shared
// instance (so they tap shared wrapper streams), arriving at offered CPU
// load 2.0 under MaxActive 4, every fourth one with a timeout of 1.5 times
// an unloaded run's response time — and returns the mediator's work.
func fusedBatchWork(t *testing.T, seed int64) exec.Work {
	t.Helper()
	cfg := exec.DefaultConfig()
	cfg.Seed = seed
	deliveries := func(w *workload.Workload) map[string]exec.Delivery {
		d := make(map[string]exec.Delivery, w.Catalog.Len())
		for _, name := range w.Catalog.Names() {
			d[name] = exec.Delivery{MeanWait: 50 * time.Microsecond}
		}
		return d
	}
	shared, err := workload.Fig5Small(seed)
	if err != nil {
		t.Fatal(err)
	}
	ref, _, _, err := runTraced(t, shared, cfg, deliveries(shared), "DSE", false)
	if err != nil {
		t.Fatal(err)
	}
	cfg.SharedStreams = true
	srv, err := server.New(server.Config{Exec: cfg, MaxActive: 4})
	if err != nil {
		t.Fatal(err)
	}
	var at time.Duration
	for i := 0; i < 16; i++ {
		w := shared
		if i%2 == 1 {
			if w, err = workload.Fig5Small(seed + 1 + int64(i/2)); err != nil {
				t.Fatal(err)
			}
		}
		if i > 0 {
			at += ref.BusyTime / 2
		}
		q := server.Query{Label: fmt.Sprintf("q%02d", i), Workload: w, Deliveries: deliveries(w), ArriveAt: at}
		if i%4 == 3 {
			q.Timeout = ref.ResponseTime * 3 / 2
		}
		if err := srv.Submit(q); err != nil {
			t.Fatal(err)
		}
	}
	reports, _, err := srv.Run()
	if err != nil {
		t.Fatal(err)
	}
	return reports[0].Result.Work
}

// TestDelayClassesFigureMatchesGolden pins the rendered DelayClasses figure
// (SEQ, SCR, DPHJ and DSE under every delay class, 3 seeds) byte for byte.
func TestDelayClassesFigureMatchesGolden(t *testing.T) {
	o := Options{Small: true, Seeds: []int64{1, 2, 3}}
	fig, err := DelayClasses(o)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	fig.Print(&buf)
	buf.WriteString(fig.CSV())
	compareGolden(t, "delayclasses_small.golden", buf.Bytes())
}

// TestDelayClassesFigureGoldenAtHighParallelism re-renders the figure on an
// 8-worker pool against the same golden: the figure must stay byte-identical
// at any -parallel setting, not only serially.
func TestDelayClassesFigureGoldenAtHighParallelism(t *testing.T) {
	o := Options{Small: true, Seeds: []int64{1, 2, 3}, Parallel: 8}
	fig, err := DelayClasses(o)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	fig.Print(&buf)
	buf.WriteString(fig.CSV())
	compareGolden(t, "delayclasses_small.golden", buf.Bytes())
}

// compareGolden diffs got against the committed golden file, rewriting it
// under -update-goldens.
func compareGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGoldens {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run `go test ./internal/experiment -run Golden -update-goldens` on the known-good tree): %v", path, err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s diverged from the committed golden.\n--- want\n%s\n--- got\n%s", name, want, got)
	}
}
