package dqs_test

import (
	"fmt"
	"log"
	"time"

	"dqs"
)

// hybridPolicy is the examples/hybridpolicy strategy: dynamic-scheduling
// plans (DSE ordering, degradation, repair) running on scrambling's short
// starvation fuse. It is built purely from the public API — the inner DSE
// policy comes from dqs.NewPolicy and every plan passes through unchanged
// except for the tightened timeout.
type hybridPolicy struct {
	inner dqs.Policy
}

func (p *hybridPolicy) Name() string                  { return "HYBRID" }
func (p *hybridPolicy) Done(st *dqs.PolicyState) bool { return p.inner.Done(st) }

func (p *hybridPolicy) Plan(st *dqs.PolicyState) (dqs.SchedulingPlan, error) {
	sp, err := p.inner.Plan(st)
	if err != nil {
		return sp, err
	}
	sp.Timeout = 100 * time.Millisecond // query scrambling's fuse
	return sp, nil
}

func (p *hybridPolicy) OnEvent(st *dqs.PolicyState, ev dqs.PolicyEvent) error {
	return p.inner.OnEvent(st, ev)
}

// ExampleRegisterPolicy registers the hybrid scheduling policy and runs it
// like any built-in strategy. The virtual-time engine is deterministic, so
// the run summary is a stable value.
func ExampleRegisterPolicy() {
	err := dqs.RegisterPolicy("HYBRID", func(st *dqs.PolicyState) (dqs.Policy, error) {
		inner, err := dqs.NewPolicy(st, dqs.DSE)
		if err != nil {
			return nil, err
		}
		return &hybridPolicy{inner: inner}, nil
	})
	if err != nil {
		log.Fatal(err)
	}

	w, err := dqs.Fig5Small(1)
	if err != nil {
		log.Fatal(err)
	}
	// A two-second initial delay on every wrapper: DSE's default 10s fuse
	// stays silent, the hybrid's 100ms scrambling fuse fires.
	del := dqs.UniformDeliveries(w, 20*time.Microsecond)
	for name, d := range del {
		d.InitialDelay = 2 * time.Second
		del[name] = d
	}
	res, err := dqs.Run(dqs.RunSpec{
		Workload: w, Config: dqs.DefaultConfig(), Strategy: "HYBRID", Deliveries: del,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s rows=%d timeouts=%d\n", res.Strategy, res.OutputRows, res.Timeouts)
	// Output:
	// HYBRID rows=5432 timeouts=1
}
