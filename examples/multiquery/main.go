// Multiquery demonstrates the paper's §6 future-work direction: several
// integration queries executing concurrently on one mediator, scheduled by
// a single global DQS. Because every query spends most of its life waiting
// for wrappers, their fragments interleave almost for free: the makespan of
// the batch approaches the response time of the slowest single query, far
// below running them back to back.
package main

import (
	"fmt"
	"log"
	"time"

	"dqs"
)

func main() {
	cfg := dqs.DefaultConfig()
	cfg.MemoryBytes = 256 << 20 // shared pool for all queries
	const wait = 50 * time.Microsecond

	// A fused server runs every query on one shared mediator; all three
	// arrive at time zero and none waits for admission.
	srv, err := dqs.NewServer(dqs.ServerConfig{Exec: cfg, Mode: dqs.ServerFused})
	if err != nil {
		log.Fatal(err)
	}
	var queries []dqs.ServerQuery
	for i := 0; i < 3; i++ {
		w, err := dqs.Fig5Small(int64(100 + i)) // three distinct datasets
		if err != nil {
			log.Fatal(err)
		}
		q := dqs.ServerQuery{
			Label:      fmt.Sprintf("q%d", i+1),
			Workload:   w,
			Deliveries: dqs.UniformDeliveries(w, wait),
		}
		if err := srv.Submit(q); err != nil {
			log.Fatal(err)
		}
		queries = append(queries, q)
	}

	reports, stats, err := srv.Run()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Concurrent execution (one mediator, global dynamic scheduler):")
	for _, rep := range reports {
		fmt.Printf("  %s finished at %7.3fs  (%d rows)\n", rep.Label, rep.CompletedAt.Seconds(), rep.Result.OutputRows)
	}

	var serial time.Duration
	for _, q := range queries {
		res, err := dqs.Run(dqs.RunSpec{
			Workload: q.Workload, Config: cfg, Strategy: dqs.DSE, Deliveries: q.Deliveries,
		})
		if err != nil {
			log.Fatal(err)
		}
		serial += res.ResponseTime
	}
	fmt.Printf("\nmakespan %0.3fs vs serial %0.3fs  (speedup %.2fx)\n",
		stats.Makespan.Seconds(), serial.Seconds(), serial.Seconds()/stats.Makespan.Seconds())
	fmt.Println("The concurrent batch overlaps every query's delivery waits; the §6")
	fmt.Println("tradeoff is the extra total work (materialization) and memory pressure.")
}
