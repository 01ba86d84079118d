package dqs_test

import (
	"fmt"
	"log"
	"time"

	"dqs"
)

// forwarding adds nothing to the built-in policy it wraps: each of the four
// Policy methods forwards, and it names itself as the built-in does, so its
// Results compare equal to the built-in's. Whatever the built-in does, the
// wrapper must do too — scrambling, and the server's fairness bias included.
type forwarding struct{ inner dqs.Policy }

func (p forwarding) Name() string                  { return p.inner.Name() }
func (p forwarding) Done(st *dqs.PolicyState) bool { return p.inner.Done(st) }
func (p forwarding) Plan(st *dqs.PolicyState) (dqs.SchedulingPlan, error) {
	return p.inner.Plan(st)
}
func (p forwarding) OnEvent(st *dqs.PolicyState, ev dqs.PolicyEvent) error {
	return p.inner.OnEvent(st, ev)
}

// registerForwarding registers name as a forwarding wrapper around builtin.
// Registration is process-wide and shows in AllStrategies, which is why these
// checks are examples: ExampleStrategies, earlier in the run, lists only the
// built-ins.
func registerForwarding(name string, builtin dqs.Strategy) {
	err := dqs.RegisterPolicy(name, func(st *dqs.PolicyState) (dqs.Policy, error) {
		inner, err := dqs.NewPolicy(st, builtin)
		return forwarding{inner}, err
	})
	if err != nil {
		log.Fatal(err)
	}
}

// ExampleNewPolicy_forwardingMatchesSCR runs SCR and a forwarding wrapper
// around it with wrapper D's first tuple two seconds late: both scramble away
// from the stalled chain three times, because a starved Sticky plan ends with
// an event the wrapped policy receives like any other.
func ExampleNewPolicy_forwardingMatchesSCR() {
	registerForwarding("SCR/forwarded", dqs.SCR)
	w, err := dqs.Fig5Small(1)
	if err != nil {
		log.Fatal(err)
	}
	del := dqs.UniformDeliveries(w, 20*time.Microsecond)
	d := del["D"]
	d.InitialDelay = 2 * time.Second
	del["D"] = d
	run := func(s dqs.Strategy) dqs.Result {
		res, err := dqs.Run(dqs.RunSpec{Workload: w, Config: dqs.DefaultConfig(), Strategy: s, Deliveries: del})
		if err != nil {
			log.Fatal(err)
		}
		return res
	}
	scr, fwd := run(dqs.SCR), run("SCR/forwarded")
	fmt.Printf("SCR       %.3fs scrambles=%d\n", scr.ResponseTime.Seconds(), scr.Replans)
	fmt.Printf("forwarded %.3fs scrambles=%d equal=%v\n", fwd.ResponseTime.Seconds(), fwd.Replans, fwd.Equal(scr))
	// Output:
	// SCR       2.558s scrambles=3
	// forwarded 2.558s scrambles=3 equal=true
}

// ExampleNewPolicy_forwardingMatchesDSEFairness serves three queries under
// round-robin fairness with DSE and with a forwarding wrapper around it: the
// favoured query is held by the engine, so the wrapper's plans carry the same
// bias and every report is the same.
func ExampleNewPolicy_forwardingMatchesDSEFairness() {
	registerForwarding("DSE/forwarded", dqs.DSE)
	serve := func(strategy dqs.Strategy) ([]dqs.ServerReport, dqs.ServerStats) {
		srv, err := dqs.NewServer(dqs.ServerConfig{
			Exec: dqs.DefaultConfig(), Strategy: string(strategy), Fairness: dqs.ServerFairRoundRobin,
		})
		if err != nil {
			log.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			w, err := dqs.Fig5Small(int64(i + 1))
			if err != nil {
				log.Fatal(err)
			}
			err = srv.Submit(dqs.ServerQuery{
				Label:      fmt.Sprintf("q%d", i),
				Workload:   w,
				Deliveries: dqs.UniformDeliveries(w, time.Duration(10*(i+1))*time.Microsecond),
				ArriveAt:   time.Duration(i) * 50 * time.Millisecond,
			})
			if err != nil {
				log.Fatal(err)
			}
		}
		reports, stats, err := srv.Run()
		if err != nil {
			log.Fatal(err)
		}
		return reports, stats
	}
	dse, dseStats := serve(dqs.DSE)
	fwd, fwdStats := serve("DSE/forwarded")
	for i, r := range dse {
		f := fwd[i]
		same := r.Result.Equal(f.Result) && r.AdmittedAt == f.AdmittedAt && r.CompletedAt == f.CompletedAt
		fmt.Printf("%s DSE %.3fs forwarded %.3fs equal=%v\n",
			r.Label, r.CompletedAt.Seconds(), f.CompletedAt.Seconds(), same)
	}
	fmt.Printf("stats equal=%v\n", dseStats == fwdStats)
	// Output:
	// q0 DSE 0.527s forwarded 0.527s equal=true
	// q1 DSE 1.028s forwarded 1.028s equal=true
	// q2 DSE 1.180s forwarded 1.180s equal=true
	// stats equal=true
}
