package dqs

import (
	"dqs/internal/server"
)

// Multi-query mediator service. A Server accepts a batch of queries with
// virtual arrival times, admits them under a max-active cap and a queueing
// discipline, executes them under the registered scheduling strategies and
// reports per-query results with admission timing — the paper's §6
// multi-query direction grown into a long-lived service. See the
// cmd/dqsserve CLI for the command-line front end.
type (
	// Server is the multi-query mediator service: Submit a batch, then Run.
	Server = server.Server
	// ServerConfig configures a Server (execution config, strategy,
	// admission cap, discipline, fairness).
	ServerConfig = server.Config
	// ServerQuery is one submitted query: workload, deliveries, arrival
	// time, priority, timeout and optional per-query streaming sink.
	ServerQuery = server.Query
	// ServerReport is one query's outcome: its Result plus admission and
	// completion instants on the server's global virtual timeline.
	ServerReport = server.Report
	// ServerStats aggregates one server run (peak concurrency, queue
	// depth, admission waits, makespan, stream sharing).
	ServerStats = server.Stats
	// ServerDiscipline orders the admission wait queue.
	ServerDiscipline = server.Discipline
	// ServerFairness selects the cross-query planning bias.
	ServerFairness = server.Fairness
)

// ServerFused names the server's one mode: every query attaches to one
// shared mediator. ServerConfig.Mode is ignored; both stay only because
// bench/ sets them — remove with the next [benchmark] PR.
const ServerFused = server.Fused

// Admission disciplines.
const (
	ServerFIFO     = server.FIFO
	ServerPriority = server.Priority
)

// Fairness modes: pure critical-degree order, round-robin planning
// favor, or favor-longest-waiting.
const (
	ServerFairGlobal         = server.FairGlobal
	ServerFairRoundRobin     = server.FairRoundRobin
	ServerFairWeightedByWait = server.FairWeightedByWait
)

// NewServer builds a multi-query mediator service from a validated
// configuration.
func NewServer(cfg ServerConfig) (*Server, error) { return server.New(cfg) }

// ParseServerDiscipline and ParseServerFairness resolve CLI flag values.
func ParseServerDiscipline(s string) (ServerDiscipline, error) { return server.ParseDiscipline(s) }
func ParseServerFairness(s string) (ServerFairness, error)     { return server.ParseFairness(s) }
