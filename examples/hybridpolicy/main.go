// Hybridpolicy demonstrates the scheduling-policy extension point: a custom
// strategy built purely from the public dqs API, registered under its own
// name and run through the same entry points as the built-ins.
//
// The hybrid combines the two adaptation ideas the paper contrasts: plans
// and fragment ordering come from the dynamic scheduler (DSE, critical
// degree + degradation), but each execution phase runs on scrambling's
// short timeout fuse instead of DSE's long one — when every scheduled
// fragment starves, the engine gives up on the phase quickly and replans,
// like phase-1 query scrambling (§1.2) would.
package main

import (
	"fmt"
	"log"
	"time"

	"dqs"
)

// hybridPolicy delegates planning to an inner DSE policy and tightens each
// plan's starvation timeout to the scrambling fuse.
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

func main() {
	if err := dqs.RegisterPolicy("HYBRID", func(st *dqs.PolicyState) (dqs.Policy, error) {
		inner, err := dqs.NewPolicy(st, dqs.DSE)
		if err != nil {
			return nil, err
		}
		return &hybridPolicy{inner: inner}, nil
	}); err != nil {
		log.Fatal(err)
	}

	w, err := dqs.Fig5Small(1)
	if err != nil {
		log.Fatal(err)
	}
	// Delay every wrapper for two seconds: DSE's default 10s fuse never
	// fires, the hybrid's 100ms scrambling fuse does.
	del := dqs.UniformDeliveries(w, 20*time.Microsecond)
	for name, d := range del {
		d.InitialDelay = 2 * time.Second
		del[name] = d
	}
	for _, s := range []dqs.Strategy{dqs.DSE, "HYBRID"} {
		res, err := dqs.Run(dqs.RunSpec{
			Workload: w, Config: dqs.DefaultConfig(), Strategy: s, Deliveries: del,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-6s response %6.3fs  rows %d  timeouts %d\n",
			res.Strategy, res.ResponseTime.Seconds(), res.OutputRows, res.Timeouts)
	}
}
