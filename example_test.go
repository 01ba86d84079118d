package dqs_test

import (
	"fmt"
	"log"
	"time"

	"dqs"
)

// ExampleRenderChains shows the pipeline-chain decomposition of the paper's
// experiment plan — the structure every scheduling decision works on.
func ExampleRenderChains() {
	w, err := dqs.Fig5Small(1)
	if err != nil {
		log.Fatal(err)
	}
	chains, err := dqs.RenderChains(w)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(chains)
	// Output:
	// p_A: scan(A) -> probe(J3) => build(J5)   [ancestors: p_E]
	// p_B: scan(B) -> probe(J5) => build(J7)   [ancestors: p_A]
	// p_C: scan(C) -> probe(J11) => output   [ancestors: p_F]
	// p_D: scan(D) => build(J9)
	// p_E: scan(E) => build(J3)
	// p_F: scan(F) -> probe(J7) -> probe(J9) => build(J11)   [ancestors: p_B, p_D]
}

// ExampleRun executes one query under dynamic scheduling and reports the
// result cardinality (the virtual-time engine is fully deterministic, so
// this is a stable value).
func ExampleRun() {
	w, err := dqs.Fig5Small(1)
	if err != nil {
		log.Fatal(err)
	}
	res, err := dqs.Run(dqs.RunSpec{
		Workload:   w,
		Config:     dqs.DefaultConfig(),
		Strategy:   dqs.DSE,
		Deliveries: dqs.UniformDeliveries(w, 20*time.Microsecond),
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("rows:", res.OutputRows)
	// Output:
	// rows: 5432
}

// ExampleNewServer executes two queries on one shared mediator — a fused
// server whose queries both arrive at time zero; both finish and report
// their own result sizes.
func ExampleNewServer() {
	srv, err := dqs.NewServer(dqs.ServerConfig{Exec: dqs.DefaultConfig(), Mode: dqs.ServerFused})
	if err != nil {
		log.Fatal(err)
	}
	for seed := int64(1); seed <= 2; seed++ {
		w, err := dqs.Fig5Small(seed)
		if err != nil {
			log.Fatal(err)
		}
		err = srv.Submit(dqs.ServerQuery{
			Label:      fmt.Sprintf("q%d", seed),
			Workload:   w,
			Deliveries: dqs.UniformDeliveries(w, 20*time.Microsecond),
		})
		if err != nil {
			log.Fatal(err)
		}
	}
	reports, _, err := srv.Run()
	if err != nil {
		log.Fatal(err)
	}
	for _, rep := range reports {
		fmt.Printf("%s rows: %d\n", rep.Label, rep.Result.OutputRows)
	}
	// Output:
	// q1 rows: 5432
	// q2 rows: 5304
}

// ExampleStrategies lists the paper's strategies.
func ExampleStrategies() {
	fmt.Println(dqs.Strategies())
	fmt.Println(dqs.AllStrategies())
	// Output:
	// [SEQ MA DSE]
	// [SEQ MA DSE SCR DPHJ]
}
