package experiment

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"dqs/internal/core"
	"dqs/internal/exec"
	"dqs/internal/fault"
	"dqs/internal/relation"
	"dqs/internal/sim"
	"dqs/internal/source"
	"dqs/internal/workload"
)

// resumeOnly hides a wrapper's ResumeN from its queue, forcing the eager
// resume-per-credit fallback, and counts the resumes it forwards.
type resumeOnly struct {
	src     *source.Source
	resumes *int
}

func (p resumeOnly) Resume(now time.Duration) {
	*p.resumes++
	p.src.Resume(now)
}

// runTraced executes one strategy like runStrategy and returns the result
// with the rendered trace. With eager set every wrapper is put behind a
// Resume-only producer first, so the whole run takes the per-credit path;
// resumes then counts the credits that reached a wrapper. At every emitted
// tuple the grant's ledger must balance — every used byte held by a named
// holder or backing a resident page — and a completed run must hand its
// whole grant back: builds released, every resident temp page consumed or
// spilled.
func runTraced(t *testing.T, w *workload.Workload, cfg exec.Config, deliveries map[string]exec.Delivery, strategy string, eager bool) (res exec.Result, trace []byte, resumes int, err error) {
	tr := &sim.Trace{}
	cfg.Trace = tr
	rt, err := exec.NewRuntime(cfg, w.Root, w.Dataset, deliveries)
	if err != nil {
		return exec.Result{}, nil, 0, err
	}
	defer rt.Med.Reclaim()
	m, sink := rt.Med.Mem, cfg.Stream
	rt.SetSink(exec.SinkFunc(func(at time.Duration, tup relation.Tuple) {
		if held, resident, used := m.HeldTotal(), m.ResidentBytes(), m.Used(); held+resident != used {
			t.Fatalf("%s: ledger: held %d + resident %d != used %d", strategy, held, resident, used)
		}
		if sink != nil {
			sink.Emit(at, tup)
		}
	}))
	if eager {
		for _, c := range rt.Dec.Chains {
			rel := c.Scan.Rel.Name
			q, ok := rt.Med.CM.Queue(rel)
			if !ok {
				return exec.Result{}, nil, 0, fmt.Errorf("no queue for %s", rel)
			}
			q.SetProducer(resumeOnly{rt.Source(rel), &resumes})
		}
	}
	results, err := core.RunStrategy(rt.Med, []*exec.Runtime{rt}, strategy)
	if err != nil {
		return exec.Result{}, nil, 0, err
	}
	res = results[0]
	if used := rt.Med.Mem.Used(); used != 0 {
		t.Errorf("%s: %d grant bytes still in use after the run (%d resident)", strategy, used, rt.Med.Mem.ResidentBytes())
	}
	var buf bytes.Buffer
	if err := tr.Dump(&buf); err != nil {
		return exec.Result{}, nil, 0, err
	}
	return res, buf.Bytes(), resumes, nil
}

// deferredDiff requires the deferred-production run of one cell to equal the
// eager one — Result and trace bytes — and returns it.
func deferredDiff(t *testing.T, name string, w *workload.Workload, cfg exec.Config, del map[string]exec.Delivery, strategy string) exec.Result {
	t.Helper()
	want, wantTrace, resumes, err := runTraced(t, w, cfg, del, strategy, true)
	if err != nil {
		t.Fatalf("%s eager: %v", name, err)
	}
	got, gotTrace, _, err := runTraced(t, w, cfg, del, strategy, false)
	if err != nil {
		t.Fatalf("%s deferred: %v", name, err)
	}
	if resumes == 0 {
		t.Fatalf("%s: the eager run resumed no wrapper through the shim", name)
	}
	if !got.Equal(want) {
		t.Errorf("%s: deferred production diverged from eager:\neager:    %+v\ndeferred: %+v", name, want, got)
	}
	if !bytes.Equal(gotTrace, wantTrace) {
		t.Errorf("%s: trace bytes differ (%d deferred, %d eager)", name, len(gotTrace), len(wantTrace))
	}
	return got
}

// TestDeferredProductionMatchesEager is the differential proof behind
// deferred bulk production: across the scheduling strategies, seeds and both
// delay classes of the dataflow suite, a run whose queues replay their
// credits in bulk equals the run that resumes the wrapper at every credit.
func TestDeferredProductionMatchesEager(t *testing.T) {
	o := Options{Small: true}
	cfg := exec.DefaultConfig()
	for class, mk := range goldenDeliveries(cfg, o) {
		for _, strategy := range []string{"SEQ", "MA", "SCR", "DSE", "DPHJ"} {
			for _, seed := range []int64{1, 2, 3} {
				w, err := o.loadWorkload(seed)
				if err != nil {
					t.Fatal(err)
				}
				c := cfg
				c.Seed = seed
				deferredDiff(t, fmt.Sprintf("%s/%s seed %d", class, strategy, seed), w, c, mk(w), strategy)
			}
		}
	}
}

// TestDeferredProductionMatchesEagerUnderMemoryPressure repeats the check
// under tight grants: every strategy at the ablation study's 2 MiB point,
// and DSE at 1 MiB, where a build overflows mid-batch and hands the
// uncredited tail back with credits pending.
func TestDeferredProductionMatchesEagerUnderMemoryPressure(t *testing.T) {
	o := Options{Small: true}
	for _, seed := range []int64{1, 2, 3} {
		w, err := o.loadWorkload(seed)
		if err != nil {
			t.Fatal(err)
		}
		cfg := exec.DefaultConfig()
		cfg.Seed = seed
		del := uniformDeliveries(w, cfg.InitialWaitEstimate)
		cfg.MemoryBytes = 2 << 20
		for _, strategy := range []string{"SEQ", "MA", "SCR", "DSE"} {
			deferredDiff(t, fmt.Sprintf("2MiB/%s seed %d", strategy, seed), w, cfg, del, strategy)
		}
		cfg.MemoryBytes = 1 << 20
		res := deferredDiff(t, fmt.Sprintf("1MiB/DSE seed %d", seed), w, cfg, del, "DSE")
		if res.MemRepairs == 0 {
			t.Errorf("seed %d: the 1 MiB grant forced no memory repair; the test lost its point", seed)
		}
	}
}

// TestDeferredProductionMatchesEagerUnderFaults runs a full fault plan —
// stall, disconnect with restart, death with replica failover: the scripted
// wrappers and the activated replica defer like every other wrapper, and the
// mediator's fault layer, which reads their outages and death between
// iterations, must not see a difference.
func TestDeferredProductionMatchesEagerUnderFaults(t *testing.T) {
	o := Options{Small: true}
	plan, err := fault.Parse("B:stall@1000+20ms;C:drop@5000+40ms,restart;D:kill@7000;D:replica,connect=10ms")
	if err != nil {
		t.Fatal(err)
	}
	cfg := exec.DefaultConfig()
	cfg.Faults = plan
	cfg.FaultSeed = 11
	w, err := o.loadWorkload(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, strategy := range []string{"SEQ", "MA", "SCR", "DSE", "DPHJ"} {
		deferredDiff(t, "faults/"+strategy, w, cfg, uniformDeliveries(w, cfg.InitialWaitEstimate), strategy)
	}
}
