package core

import (
	"fmt"
	"strings"

	"dqs/internal/exec"
)

// PolicyFactory builds a scheduling policy over freshly attached execution
// state. The factory is invoked once per engine, after the runtimes are
// attached, so it can inspect the queries it will schedule.
type PolicyFactory func(st *State) (Policy, error)

// strategyEntry is one registered strategy: a policy factory for the
// unified executor.
type strategyEntry struct {
	name    string
	desc    string
	factory PolicyFactory
}

var (
	strategies    []strategyEntry
	strategyIndex = map[string]int{}
)

func register(e strategyEntry) error {
	if e.name == "" {
		return fmt.Errorf("core: policy name must be non-empty")
	}
	if _, dup := strategyIndex[e.name]; dup {
		return fmt.Errorf("core: policy %q already registered", e.name)
	}
	strategyIndex[e.name] = len(strategies)
	strategies = append(strategies, e)
	return nil
}

func mustRegister(e strategyEntry) {
	if err := register(e); err != nil {
		panic(err)
	}
}

func init() {
	mustRegister(strategyEntry{name: "SEQ", factory: NewSeqPolicy,
		desc: "classic iterator model: drain pipeline chains strictly one after another"})
	mustRegister(strategyEntry{name: "MA", factory: NewMAPolicy,
		desc: "materialize-all: spool every wrapper to local disk, then execute locally"})
	mustRegister(strategyEntry{name: "DSE", factory: NewDSEPolicy,
		desc: "the paper's dynamic scheduling: critical-degree fragment plans with degradation"})
	mustRegister(strategyEntry{name: "SCR", factory: NewScramblePolicy,
		desc: "phase-1 query scrambling: iterator model with a timeout-driven tree switch"})
	mustRegister(strategyEntry{name: "DPHJ", factory: NewDPHJPolicy,
		desc: "double-pipelined hash joins: operator-level reactive baseline"})
}

// RegisterPolicy adds a named scheduling policy to the strategy registry,
// making it runnable through every strategy entry point (dqs.Run, the
// experiment harness, dqsrun -strategy). It fails loudly on empty or
// duplicate names.
func RegisterPolicy(name string, factory PolicyFactory) error {
	if factory == nil {
		return fmt.Errorf("core: policy %q has a nil factory", name)
	}
	return register(strategyEntry{name: name, factory: factory,
		desc: "user-registered scheduling policy"})
}

// policyFactory resolves a registered strategy name to its policy factory.
// Unknown names list what is registered.
func policyFactory(name string) (PolicyFactory, error) {
	i, ok := strategyIndex[name]
	if !ok {
		return nil, errUnknownStrategy(name)
	}
	return strategies[i].factory, nil
}

// CheckEngineStrategy reports whether NewStrategyEngine can build an engine
// under the named strategy, so a service can reject a bad name when it is
// configured instead of at its first admission.
func CheckEngineStrategy(name string) error {
	_, err := policyFactory(name)
	return err
}

// NewPolicy builds the named registered strategy's policy over st. It is the
// composition hook for wrapper policies (delegate planning to a built-in and
// adjust the plan).
func NewPolicy(st *State, name string) (Policy, error) {
	factory, err := policyFactory(name)
	if err != nil {
		return nil, err
	}
	return factory(st)
}

// StrategyNames lists every registered strategy in registration order (the
// built-ins first, then user registrations).
func StrategyNames() []string {
	names := make([]string, len(strategies))
	for i, e := range strategies {
		names[i] = e.name
	}
	return names
}

// StrategyInfo describes one registered strategy for listings.
type StrategyInfo struct {
	Name        string
	Description string
}

// StrategyList returns every registered strategy with its one-line
// description, in registration order (dqsrun -list-strategies).
func StrategyList() []StrategyInfo {
	infos := make([]StrategyInfo, len(strategies))
	for i, e := range strategies {
		infos[i] = StrategyInfo{Name: e.name, Description: e.desc}
	}
	return infos
}

// errUnknownStrategy lists the registered strategies so callers see what is
// available at every dispatch site.
func errUnknownStrategy(name string) error {
	return fmt.Errorf("core: unknown strategy %q (registered: %s)",
		name, strings.Join(StrategyNames(), ", "))
}

// NewStrategyEngine builds an engine driving the given runtimes under the
// named registered strategy.
func NewStrategyEngine(med *exec.Mediator, rts []*exec.Runtime, name string) (*Engine, error) {
	factory, err := policyFactory(name)
	if err != nil {
		return nil, err
	}
	return newEngine(med, rts, factory)
}

// RunStrategy executes the attached queries under the named registered
// strategy and returns per-query results in attachment order. This is the
// single dispatch point every entry point routes through.
func RunStrategy(med *exec.Mediator, rts []*exec.Runtime, name string) ([]exec.Result, error) {
	eng, err := NewStrategyEngine(med, rts, name)
	if err != nil {
		return nil, err
	}
	return eng.Run()
}
