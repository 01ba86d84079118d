package core

import (
	"strings"
	"testing"
	"time"
)

func TestRegisterPolicyRejectsBadEntries(t *testing.T) {
	if err := RegisterPolicy("SEQ", NewSeqPolicy); err == nil {
		t.Error("duplicate registration of SEQ did not fail")
	} else if !strings.Contains(err.Error(), "already registered") {
		t.Errorf("duplicate error = %q, want mention of prior registration", err)
	}
	if err := RegisterPolicy("", NewSeqPolicy); err == nil {
		t.Error("empty policy name did not fail")
	}
	if err := RegisterPolicy("NILFAC", nil); err == nil {
		t.Error("nil factory did not fail")
	}
}

func TestUnknownStrategyListsRegistered(t *testing.T) {
	w := smallFig5(t)
	_, err := runOn(newRT(t, w, testConfig(), nil), "BOGUS")
	if err == nil {
		t.Fatal("unknown strategy did not fail")
	}
	msg := err.Error()
	if !strings.Contains(msg, `unknown strategy "BOGUS"`) {
		t.Errorf("error %q does not name the unknown strategy", msg)
	}
	for _, name := range []string{"SEQ", "MA", "DSE", "SCR", "DPHJ"} {
		if !strings.Contains(msg, name) {
			t.Errorf("error %q does not list registered strategy %s", msg, name)
		}
	}
}

func TestStrategyNamesKeepsRegistrationOrder(t *testing.T) {
	names := StrategyNames()
	if len(names) < 5 {
		t.Fatalf("only %d registered strategies: %v", len(names), names)
	}
	want := []string{"SEQ", "MA", "DSE", "SCR", "DPHJ"}
	for i, n := range want {
		if names[i] != n {
			t.Fatalf("StrategyNames() = %v, want prefix %v", names, want)
		}
	}
}

// renamedPolicy delegates everything to an inner built-in but reports its
// own name — the smallest possible custom policy.
type renamedPolicy struct {
	name  string
	inner Policy
}

func (p *renamedPolicy) Name() string                           { return p.name }
func (p *renamedPolicy) Done(st *State) bool                    { return p.inner.Done(st) }
func (p *renamedPolicy) Plan(st *State) (SchedulingPlan, error) { return p.inner.Plan(st) }
func (p *renamedPolicy) OnEvent(st *State, ev Event) error      { return p.inner.OnEvent(st, ev) }

// TestRegisteredCustomPolicyRunsLikeBuiltins composes a custom policy over
// built-ins through NewPolicy — the iterator-model SEQ and the join-network
// DPHJ alike — and checks the alias runs bit-identically to its inner
// strategy.
func TestRegisteredCustomPolicyRunsLikeBuiltins(t *testing.T) {
	w := smallFig5(t)
	del := uniform(w, 20*time.Microsecond)
	for _, builtin := range []string{"SEQ", "DPHJ"} {
		name := builtin + "-ALIAS"
		err := RegisterPolicy(name, func(st *State) (Policy, error) {
			inner, err := NewPolicy(st, builtin)
			if err != nil {
				return nil, err
			}
			return &renamedPolicy{name: name, inner: inner}, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, n := range StrategyNames() {
			found = found || n == name
		}
		if !found {
			t.Fatalf("%s missing from StrategyNames() %v", name, StrategyNames())
		}

		alias := runStrategyOn(t, newRT(t, w, testConfig(), del), name)
		base := runStrategyOn(t, newRT(t, w, testConfig(), del), builtin)
		if alias.Strategy != name {
			t.Errorf("Result.Strategy = %q, want %q", alias.Strategy, name)
		}
		alias.Strategy = base.Strategy
		if !alias.Equal(base) {
			t.Errorf("aliased %s diverged from %s:\n%v\n%v", builtin, builtin, alias, base)
		}
	}
}

// TestNewPolicyBuildsEveryRegisteredStrategy: every registered name is a
// scheduling policy NewPolicy can build; an unknown name fails.
func TestNewPolicyBuildsEveryRegisteredStrategy(t *testing.T) {
	w := smallFig5(t)
	rt := newRT(t, w, testConfig(), nil)
	e := dseEngine(t, rt)
	for _, name := range StrategyNames() {
		pol, err := NewPolicy(e.st, name)
		if err != nil {
			t.Errorf("NewPolicy(%s): %v", name, err)
		} else if pol.Name() != name {
			t.Errorf("NewPolicy(%s) built a policy named %s", name, pol.Name())
		}
	}
	if _, err := NewPolicy(e.st, "NOPE"); err == nil {
		t.Error("NewPolicy on an unknown strategy did not fail")
	}
}
