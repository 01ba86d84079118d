// Package exec provides the shared execution runtime of the mediator query
// engine — wrapper sources, queues, hash tables, fragments, the DPHJ join
// network, cost charging — plus the analytic lower bound LWB. Every
// strategy (package core) is a scheduling policy over this same runtime, so
// performance differences between strategies can only stem from scheduling
// decisions (§5.1.2).
package exec

import (
	"fmt"
	"math"
	"time"

	"dqs/internal/fault"
	"dqs/internal/plan"
	"dqs/internal/sim"
	"dqs/internal/source"
)

// Delivery describes the simulated delivery behaviour of one wrapper.
type Delivery struct {
	// MeanWait is the mean per-tuple waiting time w (delays drawn
	// uniformly from [0, 2w], §5.1.3). Ignored when Phases is set.
	MeanWait time.Duration
	// Phases optionally gives a piecewise schedule (bursty arrivals).
	Phases []source.Phase
	// InitialDelay postpones the first tuple (initial-delay scenarios).
	InitialDelay time.Duration
}

// appendSourceOptions appends the delivery's wrapper schedule options to
// opts, for a private source and a shared stream alike. The initial delay
// always passes, so the source refuses a negative one by name.
func (d Delivery) appendSourceOptions(opts []source.Option) []source.Option {
	opts = append(opts, source.WithInitialDelay(d.InitialDelay))
	if len(d.Phases) > 0 {
		return append(opts, source.WithPhases(d.Phases...))
	}
	return append(opts, source.WithMeanWait(d.MeanWait))
}

// Config is what a caller may set about one query execution. A field is here
// because two callers that exist need different values, or because it hands
// the engine a resource: a cache, a sink, a trace. Everything else — the
// DQP and scrambling time-outs, the retry schedule, the CM's rate-change
// factor — is a constant beside the code that reads it.
type Config struct {
	// Cost model.

	// Params is the simulation cost table (Table 1).
	Params sim.Params
	// Seed drives every random stream (delays). Runs with equal seeds and
	// configs are bit-identical.
	Seed int64

	// Grant and windows.

	// MemoryBytes is the query's memory grant, fixed for the whole
	// execution (§3.3).
	MemoryBytes int64
	// QueueTuples is the per-wrapper window size in tuples.
	QueueTuples int
	// BatchTuples is the DQP batch size (§3.2). A pop never takes more than
	// a window or a page, so a huge value runs a chain at a time.
	BatchTuples int
	// PrefetchPages is the temp-reader prefetch depth.
	PrefetchPages int
	// Governor is true in DefaultConfig. False writes every temp page
	// through from the start (the paper's §4.4 model), which the engine
	// otherwise does only for a query whose builds are estimated not to fit
	// the grant. Kept only because bench/ clears it for its write-through
	// comparison — remove with the next [benchmark] PR.
	Governor bool

	// Scheduling.

	// BMT is the benefit-materialization threshold (§4.4); the experiments
	// use 1.
	BMT float64
	// InitialWaitEstimate seeds the scheduler's waiting-time knowledge
	// before the CM has observed arrivals; the natural choice is the
	// no-problem delivery time w_min.
	InitialWaitEstimate time.Duration
	// Workers is read by nothing: the engine is serial (DESIGN.md §5 "Why
	// the engine is serial"). Kept only because bench/ assigns it — remove
	// with the next [benchmark] PR.
	Workers int
	// Plans, when non-nil, counts each query's plan as a hit or a miss in
	// Result.PlanCacheHits/Misses (a miss the first time the cache sees the
	// plan root). It shares nothing: every run of a plan reads the one
	// decomposition plan.Builder.Output made, with or without it. Kept only
	// because bench/ sets it and reads those counts — remove with the next
	// [benchmark] PR.
	Plans *plan.DecompositionCache

	// Faults.

	// Faults, when active, injects the plan's per-wrapper fault clauses into
	// this run's sources and arms the engine-side resilience machinery
	// (silence detection, bounded retry, failover, partial results). A nil
	// or empty plan is the fault-free path and leaves runs bit-identical to
	// a build without fault support.
	Faults *fault.Plan
	// FaultSeed salts the fault-dedicated random streams (restart re-draws,
	// replica delays), keyed per wrapper name, so fault randomness never
	// perturbs the base data and delay streams.
	FaultSeed int64
	// PartialResults lets the engine complete a QEP minus dead subtrees:
	// fragments of a wrapper declared dead with no replica are abandoned
	// with whatever they processed, and the Result reports the degraded
	// fragments. Off, a dead wrapper without a replica fails the run.
	PartialResults bool

	// Service and observation.

	// SharedStreams lets queries attached to one mediator share physical
	// wrapper streams: when several queries scan the same table object with
	// identical delivery behaviour, the wrapper executes the sub-query once
	// on one production schedule and every query taps the stream through
	// its own credit window. The schedule runs from the mediator's epoch,
	// whoever taps it and whenever (epoch scheduling, DESIGN.md §5.2): a
	// late query replays the delivered prefix from the mediator's retention
	// buffer at CPU speed, so it costs less than the same query run alone.
	// Sources carrying fault scripts stay private. Off (the default), every
	// query gets its own simulated wrapper — the single-query-identical path.
	SharedStreams bool
	// Stream, when non-nil, receives every result tuple the instant it is
	// produced (insert-only, correct-so-far streaming delivery). Streaming
	// is observation only: timing, costs and results are identical with or
	// without a sink.
	Stream Sink
	// Trace, when non-nil, records execution events.
	Trace *sim.Trace
}

// AutoPartitions is the partition count the deleted parallel build used at a
// worker count; the engine reads it nowhere. Kept only because bench/ calls
// it — remove with the next [benchmark] PR.
func AutoPartitions(workers int) int {
	if workers <= 1 {
		return 1
	}
	p := 1
	for p < 4*workers && p < 64 {
		p *= 2
	}
	return p
}

// DefaultConfig returns the configuration used by the paper's experiments:
// Table 1 costs, ample memory, bmt = 1.
func DefaultConfig() Config {
	p := sim.DefaultParams()
	return Config{
		Params:              p,
		MemoryBytes:         64 << 20,
		QueueTuples:         4 * p.TuplesPerPage(),
		BatchTuples:         256,
		BMT:                 1,
		InitialWaitEstimate: 20 * time.Microsecond,
		PrefetchPages:       2,
		Governor:            true,
		Seed:                1,
	}
}

// maxQueueTuples bounds the per-wrapper window, whose ring is allocated up
// front: 80 times the queue ablation's largest window (64 pages).
const maxQueueTuples = 1 << 20

// Validate reports the first invalid configuration field.
func (c Config) Validate() error {
	if err := c.Params.Validate(); err != nil {
		return err
	}
	switch {
	case c.MemoryBytes <= 0:
		return fmt.Errorf("exec: MemoryBytes must be positive, got %d", c.MemoryBytes)
	case c.QueueTuples <= 0:
		return fmt.Errorf("exec: QueueTuples must be positive, got %d", c.QueueTuples)
	case c.QueueTuples > maxQueueTuples:
		return fmt.Errorf("exec: QueueTuples must be at most %d, got %d", maxQueueTuples, c.QueueTuples)
	case c.BatchTuples <= 0:
		return fmt.Errorf("exec: BatchTuples must be positive, got %d", c.BatchTuples)
	case c.BMT < 0:
		return fmt.Errorf("exec: BMT must be non-negative, got %v", c.BMT)
	case math.IsNaN(c.BMT) || math.IsInf(c.BMT, 0):
		return fmt.Errorf("exec: BMT must be finite, got %v", c.BMT)
	case c.InitialWaitEstimate < 0:
		return fmt.Errorf("exec: InitialWaitEstimate must be non-negative, got %v", c.InitialWaitEstimate)
	case c.PrefetchPages < 1:
		return fmt.Errorf("exec: PrefetchPages must be at least 1, got %d", c.PrefetchPages)
	}
	return c.Faults.Validate()
}
