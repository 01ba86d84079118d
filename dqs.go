// Package dqs is a reproduction of "Dynamic Query Scheduling in Data
// Integration Systems" (Bouganim, Fabret, Mohan, Valduriez — ICDE 2000):
// a mediator query engine over autonomous wrappers with unpredictable data
// delivery, executing bushy hash-join plans with three strategies —
//
//   - SEQ: the classic iterator model (one pipeline chain at a time),
//   - MA:  materialize-all (drain every wrapper to local disk, then run),
//   - DSE: the paper's dynamic scheduling execution — a Dynamic Query
//     Scheduler orders query fragments by critical degree and degrades
//     critical blocked chains into materialization + complement fragments,
//     while a Dynamic Query Processor interleaves the scheduled fragments
//     batch by batch, reacting instantly to delivery gaps.
//
// Everything runs on a deterministic virtual-time cost simulator configured
// by the paper's Table 1 parameters, so experiments are exactly repeatable.
//
// Quick start:
//
//	w, _ := dqs.Fig5(1)
//	spec := dqs.RunSpec{
//		Workload:   w,
//		Config:     dqs.DefaultConfig(),
//		Strategy:   dqs.DSE,
//		Deliveries: dqs.UniformDeliveries(w, 20*time.Microsecond),
//	}
//	res, _ := dqs.Run(spec)
//	fmt.Println(res)
package dqs

import (
	"fmt"
	"time"

	"dqs/internal/core"
	"dqs/internal/exec"
	"dqs/internal/fault"
	"dqs/internal/optimizer"
	"dqs/internal/plan"
	"dqs/internal/relation"
	"dqs/internal/sim"
	"dqs/internal/workload"
)

// Re-exported building blocks. Aliases keep one canonical definition in the
// internal packages while giving users a single import.
type (
	// Config carries every execution knob (Table 1 costs, memory grant,
	// batch size, bmt, ...).
	Config = exec.Config
	// Delivery describes one wrapper's simulated delivery behaviour.
	Delivery = exec.Delivery
	// Result summarizes one query execution.
	Result = exec.Result
	// Work is Result.Work: exact counters of the scheduling loop's work.
	Work = exec.Work
	// Workload bundles catalog, query, statistics, plan and dataset.
	Workload = workload.Workload
	// Params is the simulation cost table.
	Params = sim.Params
	// Trace records execution events.
	Trace = sim.Trace
	// FaultPlan is a declarative, seed-deterministic fault scenario: clauses
	// (stall, burst, disconnect, kill) and replica declarations per source.
	// Set Config.Faults to inject one; an empty plan changes nothing.
	FaultPlan = fault.Plan
	// FaultClause is one fault striking one source at a row boundary.
	FaultClause = fault.Clause
	// FaultReplica declares a standby source for failover.
	FaultReplica = fault.Replica
	// StrategyInfo describes one registered strategy for listings.
	StrategyInfo = core.StrategyInfo
	// DecompositionCache counts, per plan root, the runs that reused a plan
	// (Result.PlanCacheHits/Misses) when set as Config.Plans. It shares
	// nothing: every plan carries its one pipeline-chain decomposition, and
	// every run of the plan reads it. Kept only because bench/ uses it —
	// remove with the next [benchmark] PR.
	DecompositionCache = plan.DecompositionCache
	// PlanCache memoizes optimizer output keyed by query shape: repeated
	// structurally identical queries share one DP enumeration, and literal
	// rebindings reuse it with freshly bound, re-annotated plans.
	PlanCache = optimizer.PlanCache
	// PlanCacheStats snapshots a PlanCache's hit/miss/build counters.
	PlanCacheStats = optimizer.CacheStats
	// Sink receives result tuples the instant they are produced (insert-
	// only, correct-so-far streaming delivery). Set Config.Stream to one.
	Sink = exec.Sink
	// SinkFunc adapts a function to the Sink interface.
	SinkFunc = exec.SinkFunc
)

// AutoPartitions is read by nothing in the engine, which is serial. Kept only
// because bench/ calls it — remove with the next [benchmark] PR.
func AutoPartitions(workers int) int { return exec.AutoPartitions(workers) }

// NewDecompositionCache returns an empty decomposition cache for
// Config.Plans. Kept only because bench/ calls it — remove with the next
// [benchmark] PR.
func NewDecompositionCache() *DecompositionCache { return plan.NewDecompositionCache() }

// NewPlanCache returns an empty query-shape-keyed optimizer cache: Load
// solves the join-order DP once per query shape and serves each literal
// binding its own plan, decomposed once when it was built.
func NewPlanCache() *PlanCache { return optimizer.NewPlanCache() }

// ParseFaults builds a fault plan from the compact CLI spec grammar, e.g.
// "C:burst@100+500x300us;D:drop@5000+2s;A:kill@9000;A:replica,connect=50ms".
// See the fault-injection section of the README for the full grammar.
func ParseFaults(spec string) (*FaultPlan, error) { return fault.Parse(spec) }

// StrategyList returns every registered strategy with its one-line
// description, in registration order.
func StrategyList() []StrategyInfo { return core.StrategyList() }

// Strategy selects an execution strategy.
type Strategy string

// Available strategies. SEQ, MA and DSE are the paper's evaluation; the
// extensions implement the two alternatives the paper's introduction
// discusses: SCR is phase-1 query scrambling (§1.2, the timeout-driven
// scheduling-level reaction) and DPHJ is the double-pipelined symmetric
// hash join (§1.1, the operator-level reaction, at roughly double the
// memory footprint). All five are scheduling policies on one engine, so
// each runs under faults, in a server and over several queries.
const (
	SEQ  Strategy = "SEQ"
	MA   Strategy = "MA"
	DSE  Strategy = "DSE"
	SCR  Strategy = "SCR"
	DPHJ Strategy = "DPHJ"
)

// Strategies lists the paper's strategies in presentation order.
func Strategies() []Strategy { return []Strategy{SEQ, MA, DSE} }

// AllStrategies lists every registered strategy in registration order: the
// built-ins (including the scrambling and symmetric-join extensions)
// followed by policies added with RegisterPolicy.
func AllStrategies() []Strategy {
	names := core.StrategyNames()
	out := make([]Strategy, len(names))
	for i, n := range names {
		out[i] = Strategy(n)
	}
	return out
}

// Scheduling-policy extension point. Every built-in strategy is a
// scheduling policy over one unified batch executor; RegisterPolicy adds
// your own under a new strategy name, runnable through Run and every other
// strategy entry point.
type (
	// Policy decides which fragments run next at every planning point and
	// absorbs the interruption events that end execution phases.
	Policy = core.Policy
	// PolicyState is the execution state the engine shares with a policy:
	// clock, attached query runtimes, stalls, cost charging, the replan
	// counter, and the mediator for everything else.
	PolicyState = core.State
	// PolicyFactory builds a policy once the engine's queries are attached.
	PolicyFactory = core.PolicyFactory
	// SchedulingPlan is what a policy hands the executor at each planning
	// point: the fragments to run and the execution mode of the phase.
	SchedulingPlan = core.SchedulingPlan
	// PolicyEvent is one DQP interruption delivered to the policy.
	PolicyEvent = core.Event
	// Fragment is the schedulable unit of work (a pipeline-chain segment).
	Fragment = exec.Fragment
	// QueryRuntime is one attached query's execution runtime.
	QueryRuntime = exec.Runtime
)

// Interruption-event kinds delivered to Policy.OnEvent. The three fault
// kinds (SourceDown, SourceUp, Failover) are only raised under an active
// fault plan, and Starved only ends a Sticky plan, whose policy then reacts
// to the starvation itself (SCR waits or scrambles).
const (
	EventSPDone     = core.EventSPDone
	EventEndOfQF    = core.EventEndOfQF
	EventRateChange = core.EventRateChange
	EventTimeout    = core.EventTimeout
	EventOverflow   = core.EventOverflow
	EventStarved    = core.EventStarved
	EventSourceDown = core.EventSourceDown
	EventSourceUp   = core.EventSourceUp
	EventFailover   = core.EventFailover
)

// RegisterPolicy adds a named scheduling policy to the strategy registry.
// It fails loudly on empty or duplicate names; on success
// Strategy(name) becomes runnable everywhere a built-in strategy is.
func RegisterPolicy(name string, factory PolicyFactory) error {
	return core.RegisterPolicy(name, factory)
}

// NewPolicy builds a registered strategy's policy over the given state. Use
// it inside a PolicyFactory to compose with a built-in — delegate planning
// to it and adjust the plans or the event reactions it produces.
func NewPolicy(st *PolicyState, strategy Strategy) (Policy, error) {
	return core.NewPolicy(st, string(strategy))
}

// DefaultConfig returns the configuration of the paper's experiments.
func DefaultConfig() Config { return exec.DefaultConfig() }

// DefaultParams returns the Table 1 simulation parameters.
func DefaultParams() Params { return sim.DefaultParams() }

// Fig5 builds the paper's Figure-5 experiment workload (six wrappers,
// five-way join).
func Fig5(seed int64) (*Workload, error) { return workload.Fig5(seed) }

// Fig5Small builds a 1/10-scale Figure-5 workload for fast experimentation.
func Fig5Small(seed int64) (*Workload, error) { return workload.Fig5Small(seed) }

// UniformDeliveries assigns the same mean waiting time to every wrapper of
// the workload.
func UniformDeliveries(w *Workload, wait time.Duration) map[string]Delivery {
	out := make(map[string]Delivery, w.Catalog.Len())
	for _, name := range w.Catalog.Names() {
		out[name] = Delivery{MeanWait: wait}
	}
	return out
}

// RunSpec describes one execution.
type RunSpec struct {
	Workload   *Workload
	Config     Config
	Strategy   Strategy
	Deliveries map[string]Delivery
}

// newRuntime assembles the runtime of a spec.
func newRuntime(spec RunSpec) (*exec.Runtime, error) {
	if spec.Workload == nil {
		return nil, fmt.Errorf("dqs: RunSpec.Workload is nil")
	}
	return exec.NewRuntime(spec.Config, spec.Workload.Root, spec.Workload.Dataset, spec.Deliveries)
}

// Run executes the spec and returns the run summary. The strategy is
// resolved through the policy registry, so policies added with
// RegisterPolicy run exactly like the built-ins.
func Run(spec RunSpec) (Result, error) {
	rt, err := newRuntime(spec)
	if err != nil {
		return Result{}, err
	}
	defer rt.Med.Reclaim()
	results, err := core.RunStrategy(rt.Med, []*exec.Runtime{rt}, string(spec.Strategy))
	if err != nil {
		return Result{}, err
	}
	return results[0], nil
}

// LowerBound computes the paper's analytic response-time lower bound LWB
// for the spec's workload and deliveries.
func LowerBound(spec RunSpec) (time.Duration, error) {
	rt, err := newRuntime(spec)
	if err != nil {
		return 0, err
	}
	defer rt.Med.Reclaim()
	return exec.LWB(rt), nil
}

// RenderPlan returns an ASCII rendering of the workload's physical plan.
func RenderPlan(w *Workload) string { return plan.Render(w.Root) }

// RenderChains returns the pipeline-chain decomposition the workload's plan
// carries, with the direct ancestor (blocking) relation.
func RenderChains(w *Workload) (string, error) {
	dec, err := plan.Decompose(w.Root)
	if err != nil {
		return "", err
	}
	return dec.String(), nil
}

// ExpectedRows returns the statistical expectation of the workload's result
// size.
func ExpectedRows(w *Workload) float64 { return w.Root.EstRows }

// Relations returns the workload's relation names in sorted order.
func Relations(w *Workload) []string { return w.Catalog.Names() }

// Cardinality returns the cardinality of one workload relation.
func Cardinality(w *Workload, name string) (int, error) {
	r, ok := w.Catalog.Lookup(name)
	if !ok {
		return 0, fmt.Errorf("dqs: unknown relation %q", name)
	}
	return r.Cardinality, nil
}

// Tuple is the row representation flowing through the engine.
type Tuple = relation.Tuple
