// Package server implements the multi-query mediator service over the DQS
// engine: a long-lived dqs.Server accepts a batch of queries with virtual
// arrival times, admits them under a max-active cap and a queueing
// discipline, executes admitted queries under the registered scheduling
// strategies, and reports per-query results with admission timing. It is
// the paper's §6 multi-query direction grown into a service: one mediator
// process serving a stream of queries that contend for admission slots,
// the memory grant, the plan caches and (optionally) the physical wrapper
// streams.
//
// The server runs in one of two execution modes:
//
//   - Isolated (the default): every query executes on a private mediator —
//     its own virtual clock, disk, memory grant — exactly like a serial
//     dqs.Run, so queries never interact. Each runs alone to completion;
//     the server then replays the admission cap and discipline over the
//     known service times. Per-query Results are byte-identical to serial
//     runs at any MaxActive; only admission timing changes.
//
//   - Fused: every admitted query attaches to one shared mediator — one
//     clock, one memory grant arbitrated by one governor with per-query
//     holder attribution, shared decomposition/plan caches, and optionally
//     shared physical wrapper streams (Config.Exec.SharedStreams). All
//     queries' fragments compete in one scheduling plan; cross-query
//     fairness biases the planning order. A policy without mid-run attach
//     (every built-in but DSE) serves the one shape that needs none: every
//     query arriving at time zero with no cap.
//
// Both modes execute through one driver loop (runBatch): a fused server
// gives it the whole batch, an isolated server one query at a time.
// Everything is deterministic: equal seeds, configs and submission orders
// produce bit-identical reports.
package server

import (
	"fmt"
	"sort"
	"time"

	"dqs/internal/core"
	"dqs/internal/exec"
	"dqs/internal/workload"
)

// Mode selects the server's execution mode.
type Mode int

const (
	// Isolated runs every admitted query on a private mediator, byte-
	// identical to a serial run; the server arbitrates admission only.
	Isolated Mode = iota
	// Fused attaches every admitted query to one shared mediator: shared
	// grant, shared caches, optionally shared wrapper streams, one global
	// scheduling plan.
	Fused
)

// String names the mode for flags and reports.
func (m Mode) String() string {
	switch m {
	case Isolated:
		return "isolated"
	case Fused:
		return "fused"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// ParseMode resolves a mode name from a CLI flag.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "isolated":
		return Isolated, nil
	case "fused":
		return Fused, nil
	}
	return 0, fmt.Errorf("server: unknown mode %q (valid: isolated, fused)", s)
}

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

// Fairness selects how a Fused server shares planning attention across its
// admitted queries. Isolated servers ignore it (each query has its own
// scheduler).
type Fairness int

const (
	// FairGlobal imposes nothing: all queries' fragments compete purely by
	// critical degree, the paper's §6 behaviour and the oracle mode.
	FairGlobal Fairness = iota
	// FairRoundRobin rotates planning favor through the active unfinished
	// queries in admission order, one per scheduling round.
	FairRoundRobin
	// FairWeightedByWait favors the query that has been running-but-
	// unfinished longest (max now - admission, i.e. the earliest admitted
	// unfinished query; ties in admission order).
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
	// Shared infrastructure rides in here: Exec.Plans (the decomposition
	// cache) is shared by every query in both modes; Exec.SharedStreams
	// lets fused queries share physical wrapper streams.
	Exec exec.Config
	// Strategy names the registered scheduling strategy ("" = DSE). A fused
	// server admitting a query after its first planning point needs a
	// strategy whose policy supports mid-run attachment; of the built-ins,
	// only DSE does.
	Strategy string
	// MaxActive caps concurrently executing queries; submissions beyond the
	// cap wait in the admission queue. 0 or negative admits without bound.
	MaxActive int
	// Mode selects isolated or fused execution.
	Mode Mode
	// Discipline orders the admission wait queue.
	Discipline Discipline
	// Fairness selects the fused cross-query planning bias.
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
	// they are produced (per-query streaming delivery). An isolated server
	// runs its queries one after another, so their sinks fire query by
	// query, each stamped on its query's private clock.
	Sink exec.Sink
}

// wrap names the query an error belongs to. Submit rejects empty labels:
// an unlabelled query is an isolated server's private run, and runIsolated
// names it.
func (q *Query) wrap(err error) error {
	if q.Label == "" {
		return err
	}
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
	// SharedStreams and StreamTaps count the physical wrapper streams a
	// fused server shared and the query taps they served (zero in isolated
	// mode or with Exec.SharedStreams off).
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
	switch cfg.Mode {
	case Isolated, Fused:
	default:
		return nil, fmt.Errorf("server: invalid mode %d", int(cfg.Mode))
	}
	if cfg.Mode == Isolated && cfg.Exec.SharedStreams {
		return nil, fmt.Errorf("server: shared streams need fused mode (isolated queries run on private mediators)")
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
	if s.cfg.Mode == Fused {
		return s.runBatch()
	}
	return s.runIsolated()
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
// s.queries, in arrival order) for a slot freeing at time t. When nothing
// has arrived by t, admission jumps to the earliest arrival. It returns the
// position within pending and the admission instant.
func (s *Server) pickAdmission(pending []int, t time.Duration) (pos int, at time.Duration) {
	// The arrived prefix of the pending queue competes for the slot; with
	// nothing arrived, the earliest arrivals (there may be ties) compete at
	// their arrival instant.
	n := s.countArrived(pending, t)
	if n == 0 {
		n = s.countArrived(pending, s.queries[pending[0]].ArriveAt)
	}
	if s.cfg.Discipline == Priority {
		for i := 1; i < n; i++ {
			if s.queries[pending[i]].Priority > s.queries[pending[pos]].Priority {
				pos = i
			}
		}
	}
	return pos, max(t, s.queries[pending[pos]].ArriveAt)
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
