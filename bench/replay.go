package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"dqs"
	"dqs/internal/comm"
	"dqs/internal/exec"
	"dqs/internal/mem"
	"dqs/internal/operator"
	"dqs/internal/optimizer"
	"dqs/internal/plan"
	"dqs/internal/relation"
	"dqs/internal/sim"
	"dqs/internal/source"
)

// Replays measure the layers the op-level seams cannot reach: each drives
// one layer's public calls in isolation over the workload's own relations
// and the config's batch and window sizes, and reports nanoseconds per
// tuple. They are per-layer context, never gated.

// replayMin is how long one replay repeats for; its median repetition is
// reported.
const replayMin = 120 * time.Millisecond

// repeated calls f for replayMin, at least three times, and returns the
// median of the values it measured.
func repeated(f func() (float64, error)) (float64, error) {
	var vs []float64
	for start := time.Now(); len(vs) < 3 || time.Since(start) < replayMin; {
		v, err := f()
		if err != nil {
			return 0, err
		}
		vs = append(vs, v)
	}
	return percentile(vs, 0.5), nil
}

// perTuple repeats f, which returns the tuples it moved, and returns the
// median nanoseconds per tuple.
func perTuple(f func() (int, error)) (float64, error) {
	return repeated(func() (float64, error) {
		t0 := time.Now()
		n, err := f()
		return float64(time.Since(t0)) / float64(n), err
	})
}

// perCall repeats f and returns its median duration in the given unit.
func perCall(unit time.Duration, f func() error) (float64, error) {
	return repeated(func() (float64, error) {
		t0 := time.Now()
		err := f()
		return float64(time.Since(t0)) / float64(unit), err
	})
}

// replayLayers runs every replay over dataset w under cfg.
func replayLayers(w *dqs.Workload, cfg dqs.Config, nproc int, build func(int64) (*dqs.Workload, error), m map[string]float64) error {
	steps := []struct {
		name string
		f    func() (float64, error)
	}{
		{"source.produce_ns_per_tuple", func() (float64, error) { return replaySource(w, cfg, false) }},
		{"source.shared_tap_ns_per_tuple", func() (float64, error) { return replaySource(w, cfg, true) }},
		{"operator.build_ns_per_tuple", func() (float64, error) { return replayBuild(w, 1) }},
		{"operator.build_ns_per_tuple.parts", func() (float64, error) { return replayBuild(w, dqs.AutoPartitions(nproc)) }},
		{"operator.probe_ns_per_tuple", func() (float64, error) { return replayProbe(w) }},
		{"exec.cascade_ns_per_tuple", func() (float64, error) { return replayCascade(w, cfg) }},
		{"mem.temp_append_ns_per_tuple", func() (float64, error) { return replayTemp(w, cfg, false) }},
		{"mem.temp_read_ns_per_tuple", func() (float64, error) { return replayTemp(w, cfg, true) }},
		{"mem.freeup_us", func() (float64, error) { return replayFreeUp(w, cfg) }},
	}
	for _, s := range steps {
		v, err := s.f()
		if err != nil {
			return fmt.Errorf("replay %s: %w", s.name, err)
		}
		m[s.name] = v
	}
	m["comm.push_pop_ns_per_tuple"], m["comm.allocs_per_batch"] = replayQueue(cfg)
	return replayPlanning(w, build, m)
}

// replayPlanning times what set-up is made of: dataset generation, the
// optimizer's DP, a plan-cache hit and a chain decomposition.
func replayPlanning(w *dqs.Workload, build func(int64) (*dqs.Workload, error), m map[string]float64) error {
	pc := optimizer.NewPlanCache()
	if _, err := pc.Load(w.Catalog, w.Query, w.Stats); err != nil {
		return err
	}
	steps := []struct {
		name string
		unit time.Duration
		f    func() error
	}{
		{"workload.build_ms", time.Millisecond, func() error { _, err := build(1); return err }},
		{"optimizer.optimize_us", time.Microsecond, func() error { _, err := optimizer.Optimize(w.Catalog, w.Query, w.Stats); return err }},
		{"optimizer.cache_hit_us", time.Microsecond, func() error { _, err := pc.Load(w.Catalog, w.Query, w.Stats); return err }},
		{"plan.decompose_us", time.Microsecond, func() error { _, err := plan.Decompose(w.Root); return err }},
	}
	for _, s := range steps {
		v, err := perCall(s.unit, s.f)
		if err != nil {
			return fmt.Errorf("replay %s: %w", s.name, err)
		}
		m[s.name] = v
	}
	return nil
}

// liveCols is the projection the replays push into the wrapper: every
// column but the row id, which no Figure-5 join or predicate reads.
func liveCols(t *relation.Table) []int {
	keep := make([]int, 0, t.Rel.Schema.Width()-1)
	for c := 1; c < t.Rel.Schema.Width(); c++ {
		keep = append(keep, c)
	}
	return keep
}

// replaySource drains relation A through a columnar wrapper queue: the
// source produces under the window protocol (one Resume per credit, as in
// the engine), the consumer pops batches and credits every slot. shared
// makes the source a tap on a shared physical stream.
func replaySource(w *dqs.Workload, cfg dqs.Config, shared bool) (float64, error) {
	table := w.Dataset["A"]
	keep := liveCols(table)
	rng := sim.NewRNG(cfg.Seed)
	var sh *source.Shared
	if shared {
		var err error
		if sh, err = source.NewShared("A", table, rng.Fork(1), source.WithMeanWait(wMin)); err != nil {
			return 0, err
		}
	}
	batch := relation.NewBatch(len(keep))
	pass := make([]bool, cfg.BatchTuples)
	return perTuple(func() (int, error) {
		q := comm.NewQueue("A", cfg.QueueTuples)
		q.SetColumnar(len(keep))
		opts := []source.Option{source.WithMeanWait(wMin), source.WithColumnar(table.Columns(), keep, -1, 0)}
		if shared {
			opts = append(opts, source.WithSharedStream(sh))
		}
		src, err := source.New("A", table, q, rng.Fork(2), cfg.Params.NetworkTupleTime(), opts...)
		if err != nil {
			return 0, err
		}
		var now time.Duration
		popped := 0
		for popped < table.Len() {
			batch.Reset(len(keep))
			n := q.PopColsN(now, batch, pass)
			if n == 0 {
				at, ok := q.NextArrival()
				if !ok {
					return 0, fmt.Errorf("queue ran dry after %d of %d tuples", popped, table.Len())
				}
				now = at
				continue
			}
			for i := 0; i < n; i++ {
				q.Credit(now)
			}
			popped += n
		}
		src.Detach()
		return popped, nil
	})
}

// replayQueue cycles full windows through a producer-less columnar queue at
// the config's window and batch sizes: PushColsN in, then PopColsN,
// ObserveArrivals and per-slot Credit out. The steady state must not
// allocate.
func replayQueue(cfg dqs.Config) (nsPerTuple, allocsPerBatch float64) {
	const width = 2
	window := cfg.QueueTuples
	q := comm.NewQueue("w", window)
	q.SetColumnar(width)
	vals := make([][]int64, width)
	for c := range vals {
		vals[c] = make([]int64, window)
	}
	arrivals := make([]time.Duration, window)
	pushPass := make([]bool, window)
	for i := range pushPass {
		pushPass[i] = true
	}
	batch := relation.NewBatch(width)
	popPass := make([]bool, cfg.BatchTuples)
	var at time.Duration
	cycle := func() (int, error) {
		for j := range arrivals {
			at += time.Microsecond
			arrivals[j] = at
		}
		q.PushColsN(vals, pushPass, arrivals)
		q.ObserveArrivals(at)
		for left := window; left > 0; {
			batch.Reset(width)
			n := q.PopColsN(at, batch, popPass)
			for i := 0; i < n; i++ {
				q.Credit(at)
			}
			left -= n
		}
		return window, nil
	}
	ns, _ := perTuple(cycle)
	const cycles = 64
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < cycles; i++ {
		cycle()
	}
	runtime.ReadMemStats(&m1)
	batchesPerCycle := (window + cfg.BatchTuples - 1) / cfg.BatchTuples
	return ns, float64(m1.Mallocs-m0.Mallocs) / float64(cycles*batchesPerCycle)
}

// joinSides returns the build and probe inputs of a J2-shaped join — the
// largest of the Figure-5 plan: relation A built on k2, probed by B.k1.
func joinSides(w *dqs.Workload) (build []relation.Tuple, buildKey int, probe []relation.Tuple, probeKey int) {
	a, b := w.Dataset["A"], w.Dataset["B"]
	return a.Rows, a.Rel.Schema.MustIndexOf(relation.ColRef{Rel: "A", Col: "k2"}),
		b.Rows, b.Rel.Schema.MustIndexOf(relation.ColRef{Rel: "B", Col: "k1"})
}

// replayBuild builds the join's hash table the way the engine does:
// Reserve from the cardinality, then InsertBatch per DQP batch — routed per
// tuple at one partition, scattered and inserted partition-parallel
// otherwise (the shape of Runtime.parallelBuild).
func replayBuild(w *dqs.Workload, parts int) (float64, error) {
	rows, key, _, _ := joinSides(w)
	const batchTuples = 256
	var scatter relation.Buckets
	return perTuple(func() (int, error) {
		ht := operator.NewPartitioned(key, parts)
		ht.Reserve(len(rows[0]), len(rows))
		if parts == 1 {
			for i := 0; i < len(rows); i += batchTuples {
				ht.InsertBatch(rows[i:min(i+batchTuples, len(rows))])
			}
		} else {
			scatter.Ensure(parts)
			for _, t := range rows {
				scatter.Add(ht.Route(t), t)
			}
			var wg sync.WaitGroup
			for p := 0; p < parts; p++ {
				wg.Add(1)
				go func(p int) {
					defer wg.Done()
					ht.Part(p).InsertBatch(scatter.Part(p))
				}(p)
			}
			wg.Wait()
		}
		if ht.Rows() != int64(len(rows)) {
			return 0, fmt.Errorf("short build: %d of %d rows", ht.Rows(), len(rows))
		}
		return len(rows), nil
	})
}

// replayProbe probes the built table with every probe-side tuple,
// concatenating matches into a per-batch arena as the fragment cascade does.
func replayProbe(w *dqs.Workload) (float64, error) {
	rows, key, probes, probeKey := joinSides(w)
	ht := operator.NewPartitioned(key, 1)
	ht.Reserve(len(rows[0]), len(rows))
	ht.InsertBatch(rows)
	var arena relation.Arena
	var out []relation.Tuple
	return perTuple(func() (int, error) {
		for i, t := range probes {
			if i%256 == 0 {
				arena.Reset()
				out = out[:0]
			}
			out, _ = ht.ProbeConcat(out, t, t[probeKey], &arena)
		}
		return len(probes), nil
	})
}

// replayCascade runs every pipeline chain as one whole fragment, in
// topological order, under instantaneous deliveries: ProcessBatch at the
// config's batch size, the clock stalled to the next arrival whenever the
// fragment is not runnable. What is left is the fragment cascade with its
// queue and hash-table traffic and none of the scheduling.
func replayCascade(w *dqs.Workload, cfg dqs.Config) (float64, error) {
	cfg.Plans, cfg.Stream = nil, nil
	cfg.MemoryBytes = dqs.DefaultConfig().MemoryBytes
	return perTuple(func() (int, error) {
		rt, err := exec.NewRuntime(cfg, w.Root, w.Dataset, nil)
		if err != nil {
			return 0, err
		}
		tuples := 0
		for _, c := range rt.Dec.TopoOrder() {
			f := rt.NewPCFragment(c)
			for !f.Done() {
				if !f.Runnable(rt.Now()) {
					at, ok := f.NextArrival()
					if !ok {
						return 0, fmt.Errorf("chain %s stalled with no arrival", c.Name)
					}
					rt.Clock.Stall(at)
					continue
				}
				n, overflow := f.ProcessBatch(cfg.BatchTuples)
				if overflow {
					return 0, fmt.Errorf("chain %s overflowed the grant", c.Name)
				}
				tuples += n
			}
		}
		return tuples, nil
	})
}

// tempStore builds a standalone temp store over its own clock, disk and
// governed grant.
func tempStore(cfg dqs.Config) (*mem.TempStore, *mem.Governor, *sim.Clock, error) {
	clock := sim.NewClock()
	mgr, err := mem.NewManager(cfg.MemoryBytes)
	if err != nil {
		return nil, nil, nil, err
	}
	gov := mem.NewGovernor(mgr)
	store := mem.NewTempStore(cfg.Params, sim.NewDisk(cfg.Params, clock), clock)
	store.SetGovernor(gov, true)
	return store, gov, clock, nil
}

// replayTemp materializes relation A into a sized chunked temp (append) or
// reads a closed one back through a prefetching reader (read).
func replayTemp(w *dqs.Workload, cfg dqs.Config, read bool) (float64, error) {
	table := w.Dataset["A"]
	fill := func() (*mem.Temp, *sim.Clock, error) {
		store, _, clock, err := tempStore(cfg)
		if err != nil {
			return nil, nil, err
		}
		t := store.CreateSized("replay", table.Rel.Schema, table.Len())
		for _, row := range table.Rows {
			t.Append(row)
		}
		t.Close()
		return t, clock, nil
	}
	if !read {
		return perTuple(func() (int, error) {
			_, _, err := fill()
			return table.Len(), err
		})
	}
	dst := make([]relation.Tuple, cfg.BatchTuples)
	return repeated(func() (float64, error) {
		t, clock, err := fill()
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		r := t.NewReader(cfg.PrefetchPages)
		for !r.Exhausted() {
			if r.PopN(clock.Now(), dst) == 0 {
				at, _ := r.NextArrival()
				clock.Stall(at)
			}
		}
		return float64(time.Since(t0)) / float64(table.Len()), nil
	})
}

// replayFreeUp fills a quarter of a grant with resident temp pages (the
// governor's residency cap), then asks the governor for the whole grant
// back: one FreeUp spilling every resident page, largest temp first.
func replayFreeUp(w *dqs.Workload, cfg dqs.Config) (float64, error) {
	table := w.Dataset["A"]
	const temps = 4
	return repeated(func() (float64, error) {
		store, gov, _, err := tempStore(cfg)
		if err != nil {
			return 0, err
		}
		for i := 0; i < temps; i++ {
			t := store.CreateSized(fmt.Sprintf("replay%d", i), table.Rel.Schema, table.Len())
			for _, row := range table.Rows[:table.Len()/(i+1)] {
				t.Append(row)
			}
		}
		if gov.ResidentBytes() == 0 {
			return 0, fmt.Errorf("no page stayed resident under a %d-byte grant", cfg.MemoryBytes)
		}
		t0 := time.Now()
		gov.FreeUp(cfg.MemoryBytes)
		us := float64(time.Since(t0)) / float64(time.Microsecond)
		if gov.ResidentBytes() != 0 {
			return 0, fmt.Errorf("FreeUp left %d resident bytes", gov.ResidentBytes())
		}
		return us, nil
	})
}
