// Package server implements the multi-query mediator service over the DQS
// engine: a long-lived dqs.Server accepts a batch of queries with virtual
// arrival times, admits them under a max-active cap and a queueing
// discipline, executes admitted queries under the registered scheduling
// strategies, and reports per-query results with admission timing. It is
// the paper's §6 multi-query direction grown into a service: one mediator
// process serving a stream of queries that contend for admission slots,
// the memory grant and (optionally) the physical wrapper streams.
//
// Every admitted query attaches to one shared mediator — one clock, one
// memory grant arbitrated by one governor with per-query holder
// attribution, and optionally shared physical wrapper streams
// (Config.Exec.SharedStreams). Queries of one plan share its one
// decomposition, which the plan carries (plan.Builder.Output), so the
// server keeps no plan cache of its own. All queries' fragments compete in
// one scheduling plan; cross-query fairness biases the planning order. A query admitted after the first planning point joins the
// plan at the next one, under every strategy. One driver loop (runBatch)
// executes the batch. Everything is deterministic: equal seeds, configs and
// submission orders produce bit-identical reports.
package server

import (
	"fmt"
	"sort"
	"time"

	"dqs/internal/core"
	"dqs/internal/exec"
	"dqs/internal/workload"
)

// Fused names the server's one execution mode. Config.Mode is ignored; it
// and Fused stay only because bench/ sets one to the other —
// remove with the next [benchmark] PR.
const Fused = 1

// Discipline orders the admission wait queue.
type Discipline int

const (
	// FIFO admits in arrival order (ties in submission order).
	FIFO Discipline = iota
	// Priority admits the highest Query.Priority first (ties toward the
	// earlier arrival, then submission order).
	Priority
)

// String names the discipline for flags and reports.
func (d Discipline) String() string {
	switch d {
	case FIFO:
		return "fifo"
	case Priority:
		return "priority"
	}
	return fmt.Sprintf("Discipline(%d)", int(d))
}

// ParseDiscipline resolves a discipline name from a CLI flag.
func ParseDiscipline(s string) (Discipline, error) {
	switch s {
	case "fifo":
		return FIFO, nil
	case "priority":
		return Priority, nil
	}
	return 0, fmt.Errorf("server: unknown discipline %q (valid: fifo, priority)", s)
}

// Fairness selects how a server shares planning attention across its
// admitted queries.
type Fairness int

const (
	// FairGlobal imposes nothing: all queries' fragments compete purely by
	// critical degree, the paper's §6 behaviour and the oracle mode.
	FairGlobal Fairness = iota
	// FairRoundRobin rotates planning favor through the active unfinished
	// queries in admission order, one per scheduling round.
	FairRoundRobin
	// FairWeightedByWait favors the unfinished query that has waited
	// longest since its arrival (the earliest ArriveAt; ties in admission
	// order).
	FairWeightedByWait
)

// String names the fairness mode for flags and reports.
func (f Fairness) String() string {
	switch f {
	case FairGlobal:
		return "global"
	case FairRoundRobin:
		return "roundrobin"
	case FairWeightedByWait:
		return "weighted"
	}
	return fmt.Sprintf("Fairness(%d)", int(f))
}

// ParseFairness resolves a fairness name from a CLI flag.
func ParseFairness(s string) (Fairness, error) {
	switch s {
	case "global":
		return FairGlobal, nil
	case "roundrobin":
		return FairRoundRobin, nil
	case "weighted":
		return FairWeightedByWait, nil
	}
	return 0, fmt.Errorf("server: unknown fairness %q (valid: global, roundrobin, weighted)", s)
}

// Config describes a server.
type Config struct {
	// Exec is the execution configuration every admitted query runs under.
	// Shared infrastructure rides in here: Exec.SharedStreams lets queries
	// share physical wrapper streams.
	Exec exec.Config
	// Strategy names the registered scheduling strategy ("" = DSE). Every
	// built-in strategy takes a query admitted mid-run up at its next
	// planning point.
	Strategy string
	// MaxActive caps concurrently executing queries; submissions beyond the
	// cap wait in the admission queue. 0 or negative admits without bound.
	MaxActive int
	// Mode is ignored (see Fused) — remove with the next [benchmark] PR.
	Mode int
	// Discipline orders the admission wait queue.
	Discipline Discipline
	// Fairness selects the cross-query planning bias. Only DSE, and
	// policies that delegate planning to it, read the favour; the other
	// built-ins ignore it.
	Fairness Fairness
}

// strategy returns the effective strategy name.
func (c Config) strategy() string {
	if c.Strategy == "" {
		return "DSE"
	}
	return c.Strategy
}

// cap returns the effective admission cap (a non-positive MaxActive admits
// without bound).
func (c Config) cap() int {
	if c.MaxActive <= 0 {
		return int(^uint(0) >> 1)
	}
	return c.MaxActive
}

// Query is one submitted query.
type Query struct {
	// Label names the query in reports and traces; must be unique and
	// non-empty.
	Label string
	// Workload bundles the query's catalog, plan and dataset.
	Workload *workload.Workload
	// Deliveries describes the wrapper delivery behaviour per relation.
	Deliveries map[string]exec.Delivery
	// ArriveAt is the query's arrival instant in the server's virtual
	// timeline; it waits in the admission queue from then.
	ArriveAt time.Duration
	// Priority orders admission under the Priority discipline (higher
	// first); FIFO ignores it.
	Priority int
	// Timeout, when positive, cancels the query once it has executed that
	// long past admission without completing. Cancellation takes effect at
	// the next planning point: the query's fragments are abandoned, its
	// memory returns to the grant, and its report carries Cancelled with
	// whatever tuples it produced. Shared state (caches, other queries,
	// the governor ledger) is untouched.
	Timeout time.Duration
	// Sink, when non-nil, receives this query's result tuples the instant
	// they are produced (per-query streaming delivery), stamped on the
	// server's global virtual timeline.
	Sink exec.Sink
}

// wrap names the query an error belongs to.
func (q *Query) wrap(err error) error {
	return fmt.Errorf("server: query %q: %w", q.Label, err)
}

// Report is one query's outcome: its execution Result plus the server-side
// admission timing, all in the server's global virtual timeline.
type Report struct {
	Label  string
	Result exec.Result
	// ArrivedAt, AdmittedAt and CompletedAt are global virtual instants.
	ArrivedAt   time.Duration
	AdmittedAt  time.Duration
	CompletedAt time.Duration
	// AdmissionWait = AdmittedAt - ArrivedAt: time spent queued.
	AdmissionWait time.Duration
	// Cancelled marks a query terminated by its Timeout.
	Cancelled bool
}

// Stats aggregates one Run across all queries.
type Stats struct {
	// Queries and Cancelled count submissions and timeout cancellations.
	Queries   int
	Cancelled int
	// PeakActive and PeakQueued are the high-water marks of concurrently
	// executing queries and of arrived-but-unadmitted queries.
	PeakActive int
	PeakQueued int
	// TotalAdmissionWait sums every query's admission wait.
	TotalAdmissionWait time.Duration
	// Makespan is the latest completion instant.
	Makespan time.Duration
	// SharedStreams and StreamTaps count the physical wrapper streams the
	// server shared and the query taps they served (zero with
	// Exec.SharedStreams off).
	SharedStreams int
	StreamTaps    int
}

// Server is a multi-query mediator service. Build one with New, Submit a
// batch of queries, then Run the batch to completion. A Server executes one
// batch; it is not safe for concurrent use.
type Server struct {
	cfg     Config
	queries []Query
	labels  map[string]bool

	// probe, when non-nil, observes the stepped mediator after every
	// scheduling round (test hook: ledger invariants are asserted here).
	probe func(med *exec.Mediator)
}

// New builds a server from a validated configuration.
func New(cfg Config) (*Server, error) {
	if err := cfg.Exec.Validate(); err != nil {
		return nil, err
	}
	if cfg.Discipline != FIFO && cfg.Discipline != Priority {
		return nil, fmt.Errorf("server: unknown discipline %v", cfg.Discipline)
	}
	if cfg.Fairness < FairGlobal || cfg.Fairness > FairWeightedByWait {
		return nil, fmt.Errorf("server: unknown fairness %v", cfg.Fairness)
	}
	if err := core.CheckEngineStrategy(cfg.strategy()); err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	return &Server{cfg: cfg, labels: make(map[string]bool)}, nil
}

// Submit adds one query to the batch. Queries may be submitted in any
// order; admission is driven by ArriveAt and the discipline, and reports
// come back in submission order.
func (s *Server) Submit(q Query) error {
	if q.Label == "" {
		return fmt.Errorf("server: query label must be non-empty")
	}
	if s.labels[q.Label] {
		return fmt.Errorf("server: duplicate query label %q", q.Label)
	}
	if q.Workload == nil {
		return fmt.Errorf("server: query %q has no workload", q.Label)
	}
	if q.ArriveAt < 0 {
		return fmt.Errorf("server: query %q has negative arrival %v", q.Label, q.ArriveAt)
	}
	s.labels[q.Label] = true
	s.queries = append(s.queries, q)
	return nil
}

// Run executes the submitted batch to completion and returns per-query
// reports in submission order, plus aggregate statistics.
func (s *Server) Run() ([]Report, Stats, error) {
	if len(s.queries) == 0 {
		return nil, Stats{}, fmt.Errorf("server: no queries submitted")
	}
	return s.runBatch()
}

// arrivalOrder returns query indices sorted by (ArriveAt, submission
// order) — the wait queue's base ordering.
func (s *Server) arrivalOrder() []int {
	idx := make([]int, len(s.queries))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return s.queries[idx[a]].ArriveAt < s.queries[idx[b]].ArriveAt
	})
	return idx
}

// pickAdmission selects the next admission from pending (indices into
// s.queries, in arrival order), among the queries arrived by t, and returns
// its position within pending.
func (s *Server) pickAdmission(pending []int, t time.Duration) (pos int) {
	if s.cfg.Discipline == Priority {
		for i, n := 1, s.countArrived(pending, t); i < n; i++ {
			if s.queries[pending[i]].Priority > s.queries[pending[pos]].Priority {
				pos = i
			}
		}
	}
	return pos
}

// countArrived returns how many pending queries (in arrival order) have
// arrived by t.
func (s *Server) countArrived(pending []int, t time.Duration) int {
	n := 0
	for n < len(pending) && s.queries[pending[n]].ArriveAt <= t {
		n++
	}
	return n
}
