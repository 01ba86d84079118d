package main

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"reflect"
	"time"

	"dqs"
	"dqs/internal/core"
	"dqs/internal/exec"
	"dqs/internal/reftest"
)

// wMin is the paper's no-problem delivery time: the per-tuple wait of a
// wrapper that is not slowed.
const wMin = 20 * time.Microsecond

// dataset is one generated workload instance with its reference answer.
type dataset struct {
	w    *dqs.Workload
	rows int64 // reftest.Count of the plan over the data
}

func newDataset(build func(int64) (*dqs.Workload, error), seed int64) (dataset, error) {
	w, err := build(seed)
	if err != nil {
		return dataset{}, err
	}
	return dataset{w: w, rows: reftest.Count(w.Root, w.Dataset)}, nil
}

// outcome is everything one op produced that must repeat exactly: the
// Result of every query it ran, in a fixed order, with server-side arrival
// instants and cancellations where there is a server.
type outcome struct {
	results   []dqs.Result
	arrived   []time.Duration // per result; zero for single-query runs
	cancelled []bool          // per result; nil for single-query runs
	stats     dqs.ServerStats // serve_fused only
}

// equal reports whether two outcomes of the same point are byte-identical in
// every simulated quantity.
func (o outcome) equal(p outcome) bool {
	if len(o.results) != len(p.results) || o.stats != p.stats {
		return false
	}
	for i := range o.results {
		if !o.results[i].Equal(p.results[i]) {
			return false
		}
		if o.cancelled != nil && o.cancelled[i] != p.cancelled[i] {
			return false
		}
	}
	return true
}

// virt returns the op's per-query virtual response and first-tuple times,
// both from arrival. Queries that produced no tuple (cancelled before their
// first answer) have no first-tuple time.
func (o outcome) virt() (response, first []float64) {
	for i, r := range o.results {
		var at time.Duration
		if o.arrived != nil {
			at = o.arrived[i]
		}
		response = append(response, (r.ResponseTime - at).Seconds())
		if r.OutputRows > 0 {
			first = append(first, float64(r.FirstTupleTime-at)/float64(time.Millisecond))
		}
	}
	return response, first
}

// digest fingerprints a cycle of outcomes for exact comparison across runs.
func digest(cycle []outcome) string {
	h := sha256.New()
	for _, o := range cycle {
		for i, r := range o.results {
			fmt.Fprintf(h, "%+v|", r)
			if o.cancelled != nil {
				fmt.Fprintf(h, "%v@%v|", o.cancelled[i], o.arrived[i])
			}
		}
		fmt.Fprintf(h, "%+v\n", o.stats)
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// workload is one named traffic mix: a fixed cycle of points (each a fully
// specified op) that a run visits in seeded order, so every seed measures
// the same multiset of ops.
type workload interface {
	// setup generates the inputs from the seed: datasets, reference
	// answers, caches, the op cycle. It is what setup_s times.
	setup(seed int64, host hostInfo) error
	points() int
	// kind groups the points that are the same op on different data; host
	// time is summarised per kind (see pass.opWallMS).
	kind(p int) int
	// run executes point p. A nil tracer runs the untraced public surface
	// (dqs.Run, dqs.NewServer); a tracer runs the same op self-assembled
	// with spans at every layer boundary. Results are checked against the
	// reference answer; a miss is an error.
	run(p int, tr *tracer) (outcome, error)
	// layer adds the workload's own per-layer metrics (paper ratios, serial
	// re-runs, server statistics, layer replays) to m.
	layer(cycle []outcome, budget time.Duration, m map[string]float64) error
}

func newWorkload(name string) (workload, error) {
	switch name {
	case "sweep_small", "scale_full", "mem_pressure":
		return &cellWorkload{name: name}, nil
	case "serve_fused":
		return &serveWorkload{}, nil
	}
	return nil, fmt.Errorf("bench: unknown workload %q", name)
}

// setIfPresent sets the named field of the struct cfg points to when the
// struct still has a settable field of that name and type, and reports
// whether it did. Config.Governor is the one knob the harness needs that the
// roadmap plans to delete (governed becomes the only memory path); set this
// way, the harness keeps building and means the same afterwards.
func setIfPresent(cfg any, field string, v any) bool {
	f := reflect.ValueOf(cfg).Elem().FieldByName(field)
	if !f.IsValid() || !f.CanSet() || f.Type() != reflect.TypeOf(v) {
		return false
	}
	f.Set(reflect.ValueOf(v))
	return true
}

// slowOne returns w_min deliveries with one wrapper slowed to wait.
func slowOne(w *dqs.Workload, rel string, wait time.Duration) map[string]dqs.Delivery {
	d := dqs.UniformDeliveries(w, wMin)
	d[rel] = dqs.Delivery{MeanWait: wait}
	return d
}

// cellPoint is one single-query op: the listed strategies run one after the
// other on the same (dataset, config, deliveries) point, as one cell of a
// paper figure does.
type cellPoint struct {
	kind       int
	ds         *dataset
	cfg        dqs.Config
	deliveries map[string]dqs.Delivery
	strategies []dqs.Strategy
}

// cellWorkload covers the three single-query workloads; name selects the
// dataset scale, the config and the point grid.
type cellWorkload struct {
	name string
	host hostInfo
	pts  []cellPoint
	emit emitStats
}

// memGrantsMB are the three tightest grants of the small firsttuple grid
// (0.5, 0.8, 1, 1.2, 1.6, 3.2, 6.4 MB) at which both MA and governed DSE
// complete: MA needs ~1.23 MB for its hash tables on Fig5Small whatever the
// data seed (it failed at 1.2 MB on 59 of 60 seeds probed and never at 1.6).
var memGrantsMB = []float64{1.6, 3.2, 6.4}

func (c *cellWorkload) setup(seed int64, host hostInfo) error {
	c.host, c.pts, c.emit = host, nil, emitStats{}
	plans := dqs.NewDecompositionCache()
	// Eight small datasets, not four: allocation per op jumps by a quarter
	// when a join result outgrows its estimate-sized reservation, and the
	// mean over a run should not hang on which side two datasets fell.
	datasets := make([]dataset, 8)
	if c.name == "scale_full" {
		datasets = datasets[:2]
	}
	for i := range datasets {
		ds, err := newDataset(c.build(), seed*8+int64(i))
		if err != nil {
			return err
		}
		// Decomposed once here, so every op of the run is a cache hit and
		// repeats of a point stay byte-identical.
		if _, _, err := plans.Load(ds.w.Root); err != nil {
			return err
		}
		datasets[i] = ds
	}
	base := dqs.DefaultConfig()
	base.Seed = seed
	base.Plans = plans
	for i := range datasets {
		ds := &datasets[i]
		first := len(c.pts)
		switch c.name {
		case "sweep_small":
			// One figure cell: SEQ, MA and DSE on the same point; one
			// wrapper of A..F slowed x{1, 2.5, 5} over w_min.
			for _, rel := range []string{"A", "B", "C", "D", "E", "F"} {
				for _, slow := range []float64{1, 2.5, 5} {
					c.pts = append(c.pts, cellPoint{ds: ds, cfg: base,
						deliveries: slowOne(ds.w, rel, time.Duration(slow*float64(wMin))),
						strategies: dqs.Strategies()})
				}
			}
		case "scale_full":
			cfg := base
			cfg.Workers = host.Workers
			c.pts = append(c.pts, cellPoint{ds: ds, cfg: cfg,
				deliveries: slowOne(ds.w, "A", 100*time.Microsecond),
				strategies: []dqs.Strategy{dqs.DSE}})
		case "mem_pressure":
			for _, mb := range memGrantsMB {
				cfg := base
				cfg.MemoryBytes = int64(mb * (1 << 20))
				setIfPresent(&cfg, "Governor", true)
				// The firsttuple experiment's deliveries: A delivers its
				// 15000 tuples over 4.5 s, everything else at w_min.
				c.pts = append(c.pts, cellPoint{ds: ds, cfg: cfg,
					deliveries: slowOne(ds.w, "A", 300*time.Microsecond),
					strategies: []dqs.Strategy{dqs.MA, dqs.DSE}})
			}
		}
		for j := first; j < len(c.pts); j++ {
			c.pts[j].kind = j - first
		}
	}
	// The op order is drawn from the seed; the multiset of ops is not.
	rand.New(rand.NewSource(seed)).Shuffle(len(c.pts), func(i, j int) {
		c.pts[i], c.pts[j] = c.pts[j], c.pts[i]
	})
	return nil
}

// build returns the generator of the workload's dataset scale.
func (c *cellWorkload) build() func(int64) (*dqs.Workload, error) {
	if c.name == "scale_full" {
		return dqs.Fig5
	}
	return dqs.Fig5Small
}

func (c *cellWorkload) points() int { return len(c.pts) }

func (c *cellWorkload) kind(p int) int { return c.pts[p].kind }

func (c *cellWorkload) run(p int, tr *tracer) (outcome, error) {
	pt := &c.pts[p]
	var out outcome
	start := time.Now()
	var sinks []*countingSink
	for _, s := range pt.strategies {
		var res dqs.Result
		var err error
		if tr == nil {
			res, err = dqs.Run(dqs.RunSpec{Workload: pt.ds.w, Config: pt.cfg, Strategy: s, Deliveries: pt.deliveries})
		} else {
			var sink *countingSink
			res, sink, err = runTraced(pt, s, tr, nil)
			sinks = append(sinks, sink)
		}
		if err != nil {
			return out, fmt.Errorf("%s on point %d: %w", s, p, err)
		}
		if res.OutputRows != pt.ds.rows {
			return out, fmt.Errorf("%s on point %d: %d result rows, reference has %d", s, p, res.OutputRows, pt.ds.rows)
		}
		out.results = append(out.results, res)
	}
	if tr != nil {
		c.emit.observe(p, start, sinks...)
	}
	return out, nil
}

// runTraced is dqs.Run assembled by hand so every layer boundary gets a
// span: mediator and query assembly, engine and policy construction, the
// stepped scheduling rounds (spanned by the ".traced" policy itself) and
// finalization. It returns the sink that observed the result stream, which
// digests the tuples' live columns when given them.
func runTraced(pt *cellPoint, s dqs.Strategy, tr *tracer, live []int) (dqs.Result, *countingSink, error) {
	sink := &countingSink{live: live}
	cfg := pt.cfg
	cfg.Stream = sink
	activeTracer = tr
	defer func() { activeTracer = nil }()

	run := tr.begin("query")
	defer tr.end(run)
	id := tr.begin("exec.assemble")
	med, err := exec.NewMediator(cfg)
	if err != nil {
		return dqs.Result{}, nil, err
	}
	rt, err := med.AddQuery("", pt.ds.w.Root, pt.ds.w.Dataset, pt.deliveries)
	tr.end(id)
	if err != nil {
		return dqs.Result{}, nil, err
	}
	id = tr.begin("core.engine_new")
	eng, err := core.NewStrategyEngine(med, []*exec.Runtime{rt}, tracedName(string(s)))
	tr.end(id)
	if err != nil {
		return dqs.Result{}, nil, err
	}
	for {
		more, err := eng.Step()
		if err != nil {
			return dqs.Result{}, nil, err
		}
		if !more {
			break
		}
	}
	id = tr.begin("core.finalize")
	res := eng.Finalize()[0]
	tr.end(id)
	return res, sink, nil
}

// serveBatch is one serve_fused op: sixteen queries with their arrival
// schedule.
type serveBatch struct {
	queries []dqs.ServerQuery
	rows    []int64 // reference answer per query
}

const (
	serveQueries   = 16
	serveMaxActive = 4
	serveBatches   = 4
	serveWait      = 50 * time.Microsecond // the serverload experiment's delivery
)

// serveWorkload is the service path: one fused dqs.Server batch per op.
type serveWorkload struct {
	host    hostInfo
	cfg     dqs.Config
	batches []serveBatch
	emit    emitStats
}

func (s *serveWorkload) setup(seed int64, host hostInfo) error {
	s.host, s.batches, s.emit = host, nil, emitStats{}
	s.cfg = dqs.DefaultConfig()
	s.cfg.Seed = seed
	s.cfg.SharedStreams = true
	s.cfg.Plans = dqs.NewDecompositionCache()
	setIfPresent(&s.cfg, "Governor", true)
	rng := rand.New(rand.NewSource(seed))
	for b := 0; b < serveBatches; b++ {
		// Half the queries tap one shared workload instance (same table
		// objects, same deliveries: they share physical wrapper streams);
		// the other half bring private data.
		dsSeed := seed*64 + int64(b)*(serveQueries/2+1)
		shared, err := s.newDataset(dsSeed)
		if err != nil {
			return err
		}
		// One unloaded serial run sets the scales: its response time R for
		// the timeouts, its CPU time for the arrival rate.
		solo := s.cfg
		solo.SharedStreams = false
		ref, err := dqs.Run(dqs.RunSpec{Workload: shared.w, Config: solo, Strategy: dqs.DSE,
			Deliveries: dqs.UniformDeliveries(shared.w, serveWait)})
		if err != nil {
			return err
		}
		var batch serveBatch
		var at time.Duration
		for i := 0; i < serveQueries; i++ {
			ds := shared
			if i%2 == 1 {
				if ds, err = s.newDataset(dsSeed + 1 + int64(i/2)); err != nil {
					return err
				}
			}
			if i > 0 {
				// Offered CPU load 2.0: queries arrive twice as fast as the
				// mediator's processor can serve them, +-20% seeded jitter.
				// (R is no measure of service time here: shared streams are
				// scheduled from the mediator's epoch, so every query after
				// the first replays retained prefixes and is bound by its
				// ~0.4 R of CPU work. At interarrival R/2 the server idles
				// at load 0.8 and the cap never binds.)
				at += time.Duration(float64(ref.BusyTime) / 2 * (1 + 0.2*(2*rng.Float64()-1)))
			}
			q := dqs.ServerQuery{
				Label:      fmt.Sprintf("q%02d", i),
				Workload:   ds.w,
				Deliveries: dqs.UniformDeliveries(ds.w, serveWait),
				ArriveAt:   at,
			}
			if i%4 == 3 {
				// 1.5 R of execution: under a full cap a query gets a
				// quarter of the processor and ~1.6 R of work to do, so
				// most of these expire (3 R never does).
				q.Timeout = ref.ResponseTime * 3 / 2
			}
			batch.queries = append(batch.queries, q)
			batch.rows = append(batch.rows, ds.rows)
		}
		s.batches = append(s.batches, batch)
	}
	return nil
}

// newDataset generates one Fig5Small instance and decomposes its plan into
// the shared cache, so every admission of the run is a cache hit.
func (s *serveWorkload) newDataset(seed int64) (dataset, error) {
	ds, err := newDataset(dqs.Fig5Small, seed)
	if err != nil {
		return ds, err
	}
	_, _, err = s.cfg.Plans.Load(ds.w.Root)
	return ds, err
}

func (s *serveWorkload) points() int { return len(s.batches) }

// kind: the batches differ in data and jitter only.
func (s *serveWorkload) kind(int) int { return 0 }

func (s *serveWorkload) run(p int, tr *tracer) (outcome, error) {
	if tr == nil {
		return s.runBatch(p, nil, nil)
	}
	sinks := make([]*countingSink, serveQueries)
	for i := range sinks {
		sinks[i] = &countingSink{}
	}
	start := time.Now()
	out, err := s.runBatch(p, tr, sinks)
	s.emit.observe(p, start, sinks...)
	return out, err
}

// runBatch submits batch p to a fresh fused server and runs it. sinks, when
// given, observe the queries' result streams.
func (s *serveWorkload) runBatch(p int, tr *tracer, sinks []*countingSink) (outcome, error) {
	b := &s.batches[p]
	cfg := dqs.ServerConfig{Exec: s.cfg, Mode: dqs.ServerFused, MaxActive: serveMaxActive, Discipline: dqs.ServerFIFO}
	if tr != nil {
		cfg.Strategy = tracedName("DSE")
		activeTracer = tr
		defer func() { activeTracer = nil }()
	}
	id := tr.begin("server.submit")
	srv, err := dqs.NewServer(cfg)
	if err != nil {
		return outcome{}, err
	}
	for i, q := range b.queries {
		if sinks != nil {
			q.Sink = sinks[i]
		}
		if err := srv.Submit(q); err != nil {
			return outcome{}, err
		}
	}
	tr.end(id)
	id = tr.begin("server.run")
	reports, stats, err := srv.Run()
	tr.end(id)
	if err != nil {
		return outcome{}, fmt.Errorf("batch %d: %w", p, err)
	}
	out := outcome{stats: stats}
	for i, rep := range reports {
		// A timeout-cancelled query is an expected outcome and keeps
		// whatever it produced; a completed one owes the full answer.
		if got, want := rep.Result.OutputRows, b.rows[i]; got > want || (!rep.Cancelled && got != want) {
			return out, fmt.Errorf("batch %d query %s: %d result rows, reference has %d (cancelled=%v)",
				p, rep.Label, got, want, rep.Cancelled)
		}
		out.results = append(out.results, rep.Result)
		out.arrived = append(out.arrived, rep.ArrivedAt)
		out.cancelled = append(out.cancelled, rep.Cancelled)
	}
	return out, nil
}
