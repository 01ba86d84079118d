package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"dqs/internal/comm"
	"dqs/internal/core"
	"dqs/internal/exec"
	"dqs/internal/relation"
)

// span is one timed interval at a layer boundary. Parent is the index of the
// span that caused it (-1 for an op root); spans of one op share Op. A span
// with Calls set aggregates that many calls under one parent (per-tuple
// wrapper resumes would otherwise be half a million spans per op): Start is
// the first timed call's start and End-Start the calls' estimated summed
// duration.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Calls  int64  `json:"calls,omitempty"`
}

// tracer records spans from the harness's own files, around the calls into
// each layer, in memory; write dumps them when the run ends. It serves the
// single client goroutine (every seam it is called from — policy callbacks,
// producer resumes, sinks — runs on the engine's serial merge path). A nil
// tracer is the untraced pass: every method is a no-op.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int // stack of open span indices
	op    int
	agg   int // most recent aggregate span, -1 when none
}

func newTracer() *tracer { return &tracer{t0: time.Now(), agg: -1} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span under the innermost open one.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Start: t.now(), Parent: parent, Op: t.op})
	t.open = append(t.open, id)
	return id
}

// end closes span id and every span still open beneath it (an engine error
// can skip the callback that would have closed a child).
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := t.now()
	for n := len(t.open); n > 0; n = len(t.open) {
		top := t.open[n-1]
		t.open = t.open[:n-1]
		t.spans[top].End = now
		if top == id {
			return
		}
	}
}

// aggregate folds calls calls of summed duration d, ending now, into the
// aggregate child span of the innermost open span.
func (t *tracer) aggregate(name string, d time.Duration, calls int64) {
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	if a := t.agg; a >= 0 && t.spans[a].Parent == parent && t.spans[a].Name == name {
		t.spans[a].End += int64(d)
		t.spans[a].Calls += calls
		return
	}
	start := t.now() - int64(d)
	t.agg = len(t.spans)
	t.spans = append(t.spans, span{Name: name, Start: start, End: start + int64(d), Parent: parent, Op: t.op, Calls: calls})
}

// write dumps the spans as one JSON document.
func (t *tracer) write(path string, workload string, host hostInfo) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	doc := struct {
		Workload string   `json:"workload"`
		Host     hostInfo `json:"host"`
		Spans    []span   `json:"spans"`
	}{workload, host, t.spans}
	if err := json.NewEncoder(f).Encode(doc); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// clockPairCost measures what one (time.Now, time.Since) pair costs, so the
// half-million timed resumes of a full-scale op can be reported net of the
// timer itself.
func clockPairCost() time.Duration {
	const n = 200000
	var sink time.Duration
	start := time.Now()
	for i := 0; i < n; i++ {
		sink += time.Since(time.Now())
	}
	total := time.Since(start)
	_ = sink
	return total / n
}

// layerStat is one span name's totals over a trace.
type layerStat struct {
	count int64   // spans (aggregates count their calls)
	incl  float64 // inclusive ns
	self  float64 // ns minus child spans
	durs  []float64
}

// summarize computes per-name inclusive and self times over the ops in
// [fromOp, toOp). Self time is a span's duration minus its children's.
func (t *tracer) summarize(fromOp, toOp int) map[string]*layerStat {
	child := make([]float64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += float64(s.End - s.Start)
		}
	}
	out := map[string]*layerStat{}
	for i, s := range t.spans {
		if s.Op < fromOp || s.Op >= toOp {
			continue
		}
		st := out[s.Name]
		if st == nil {
			st = &layerStat{}
			out[s.Name] = st
		}
		d := float64(s.End - s.Start)
		st.incl += d
		st.self += d - child[i]
		if s.Calls > 0 {
			st.count += s.Calls
		} else {
			st.count++
			st.durs = append(st.durs, d)
		}
	}
	return out
}

// activeTracer is the tracer the registered ".traced" policies report to.
// The policy registry is process-global and its factories take no harness
// argument, so the one client goroutine publishes its tracer here before a
// traced op.
var activeTracer *tracer

func init() {
	for _, name := range []string{"SEQ", "MA", "DSE"} {
		if err := core.RegisterPolicy(tracedName(name), tracedFactory(name)); err != nil {
			panic(err)
		}
	}
}

func tracedName(strategy string) string { return strategy + ".traced" }

// tracedFactory builds the named built-in policy wrapped in timing spans and
// shims every wrapper producer of the attached queries.
func tracedFactory(name string) core.PolicyFactory {
	return func(st *core.State) (core.Policy, error) {
		inner, err := core.NewPolicy(st, name)
		if err != nil {
			return nil, err
		}
		tp := &timedPolicy{inner: inner, tr: activeTracer}
		for _, rt := range st.Runtimes() {
			tp.shimProducers(st.Mediator(), rt)
		}
		// StarvationHandler changes the executor's behaviour by merely being
		// implemented, so it is only exposed when the inner policy has it.
		if sh, ok := inner.(core.StarvationHandler); ok {
			return &timedStarvingPolicy{timedPolicy: tp, starve: sh}, nil
		}
		return tp, nil
	}
}

// timedPolicy wraps a scheduling policy with spans: core.step spans one
// scheduling round (Plan entry to OnEvent return), core.plan and
// core.on_event the policy's own work, and exec.phase the DQP execution
// phase between them. It names itself as the inner policy does, so Results
// are Equal to untraced ones, and forwards every optional capability with
// the reaction the engine would have had without the wrapper.
type timedPolicy struct {
	inner core.Policy
	tr    *tracer
	step  int
	phase int
}

func (p *timedPolicy) Name() string             { return p.inner.Name() }
func (p *timedPolicy) Done(st *core.State) bool { return p.inner.Done(st) }

func (p *timedPolicy) Plan(st *core.State) (core.SchedulingPlan, error) {
	p.step = p.tr.begin("core.step")
	id := p.tr.begin("core.plan")
	sp, err := p.inner.Plan(st)
	p.tr.end(id)
	if err != nil {
		p.tr.end(p.step)
		return sp, err
	}
	p.phase = p.tr.begin("exec.phase")
	return sp, nil
}

func (p *timedPolicy) OnEvent(st *core.State, ev core.Event) error {
	p.tr.end(p.phase)
	id := p.tr.begin("core.on_event")
	err := p.inner.OnEvent(st, ev)
	p.tr.end(id)
	p.tr.end(p.step)
	return err
}

func (p *timedPolicy) PendingSummary() string {
	if d, ok := p.inner.(core.PendingDescriber); ok {
		return d.PendingSummary()
	}
	return ""
}

func (p *timedPolicy) Attach(st *core.State, rt *exec.Runtime) error {
	a, ok := p.inner.(core.Attacher)
	if !ok {
		return fmt.Errorf("core: policy %s does not support mid-run query attachment", p.Name())
	}
	id := p.tr.begin("core.attach")
	err := a.Attach(st, rt)
	p.tr.end(id)
	if err == nil {
		p.shimProducers(st.Mediator(), rt)
	}
	return err
}

func (p *timedPolicy) Cancel(st *core.State, rt *exec.Runtime) error {
	c, ok := p.inner.(core.Canceller)
	if !ok {
		return fmt.Errorf("core: policy %s does not support query cancellation", p.Name())
	}
	id := p.tr.begin("core.cancel")
	err := c.Cancel(st, rt)
	p.tr.end(id)
	return err
}

func (p *timedPolicy) SetFavored(rt *exec.Runtime) {
	if f, ok := p.inner.(core.FavorSetter); ok {
		f.SetFavored(rt)
	}
}

// shimProducers puts a timing shim between each of rt's wrapper queues and
// its simulated wrapper, so source.Resume is measured without touching the
// program.
func (p *timedPolicy) shimProducers(med *exec.Mediator, rt *exec.Runtime) {
	if p.tr == nil {
		return
	}
	for _, c := range rt.Dec.Chains {
		rel := c.Scan.Rel.Name
		name := rel
		if rt.Label != "" {
			name = rt.Label + ":" + rel
		}
		if q, ok := med.CM.Queue(name); ok {
			q.SetProducer(&timedProducer{inner: rt.Source(rel), tr: p.tr, rng: 0x9e3779b97f4a7c15})
		}
	}
}

type timedStarvingPolicy struct {
	*timedPolicy
	starve core.StarvationHandler
}

func (p *timedStarvingPolicy) OnStarved(st *core.State, sp core.SchedulingPlan) (bool, error) {
	id := p.tr.begin("core.on_starved")
	resched, err := p.starve.OnStarved(st, sp)
	p.tr.end(id)
	return resched, err
}

// resumeSample is how many wrapper resumes share one timed one. The engine
// resumes the wrapper once per consumed tuple — 80 thousand times in a small
// op, 600 thousand in a full-scale one — and a clock pair costs as much as
// the typical resume, so timing every call would mostly measure the timer.
const resumeSample = 8

// timedProducer times a pseudo-random one in resumeSample wrapper resumes
// (drawn, not strided, so the sample cannot lock onto the batch or message
// period) and folds the scaled estimate into one aggregate span per
// execution phase.
type timedProducer struct {
	inner comm.Producer
	tr    *tracer
	rng   uint64
}

func (p *timedProducer) Resume(now time.Duration) {
	p.rng ^= p.rng << 13
	p.rng ^= p.rng >> 7
	p.rng ^= p.rng << 17
	if p.rng%resumeSample != 0 {
		p.inner.Resume(now)
		return
	}
	start := time.Now()
	p.inner.Resume(now)
	p.tr.aggregate("source.resume", time.Since(start)*resumeSample, resumeSample)
}

// countingSink is the observation-only exec.Sink of the traced pass: it
// counts result tuples, notes the host time of the first one, and — given
// the live columns — folds every tuple into an order-insensitive digest.
type countingSink struct {
	tuples    int64
	firstEmit time.Time
	live      []int
	digest    uint64
}

func (s *countingSink) Emit(_ time.Duration, tup relation.Tuple) {
	if s.tuples == 0 {
		s.firstEmit = time.Now()
	}
	s.tuples++
	if s.live == nil {
		return
	}
	// FNV-1a over the live values; summing the hashes over the result set
	// makes the digest ignore production order.
	h := uint64(14695981039346656037)
	for _, c := range s.live {
		v := tup[c]
		for i := 0; i < 8; i++ {
			h ^= uint64(byte(v >> (8 * i)))
			h *= 1099511628211
		}
	}
	s.digest += h
}
