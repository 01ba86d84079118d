// Package plan models query execution plans (QEPs) the way the paper does:
// operator trees whose edges are either blocking or pipelinable (§2.2). The
// only binary operator is the asymmetric hash join — blocking build input,
// pipelinable probe input, pipelinable output — and the unary operators are
// wrapper scans (with an optional pushed-down predicate) and the final
// output. Materialization ("mat") points are not tree nodes here: they are
// introduced dynamically at the fragment level by the scheduler (PC
// degradation, §4.4) and the dynamic optimizer (memory repair, §4.2).
//
// The package also computes the QEP's decomposition into maximal pipeline
// chains (PCs) and the blocking-dependency (ancestor) relation between them,
// which together drive every scheduling decision in the paper. The
// decomposition is a static property of the plan: Builder.Output computes it
// once, and every run of the plan reads that one value (Decompose).
package plan

import (
	"fmt"
	"slices"

	"dqs/internal/relation"
)

// NodeKind discriminates QEP operators.
type NodeKind int

// Operator kinds.
const (
	KindScan NodeKind = iota
	KindHashJoin
	KindOutput
)

// String returns the operator-kind name.
func (k NodeKind) String() string {
	switch k {
	case KindScan:
		return "scan"
	case KindHashJoin:
		return "hash-join"
	case KindOutput:
		return "output"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Pred is a simple pushed-down selection predicate on a scan: keep tuples
// whose column value is strictly below Less. With uniformly distributed
// column values over [0, Domain) its selectivity is Less/Domain.
type Pred struct {
	Col  relation.ColRef
	Less int64
}

// Node is one operator of a QEP.
type Node struct {
	ID   int
	Kind NodeKind

	// Scan fields.
	Rel  *relation.Relation
	Pred *Pred

	// HashJoin fields. The build input is the blocking edge; the probe
	// input is the pipelinable edge. Keys are resolved against the
	// respective input schemas at construction time.
	Build    *Node
	Probe    *Node
	BuildKey relation.ColRef
	ProbeKey relation.ColRef

	// Output field.
	Child *Node

	// Schema of this operator's result.
	Schema *relation.Schema
	// Live is Schema narrowed to the columns the engine reads — every join
	// key and scan predicate column of the whole plan — in schema order, so
	// a join's Live is its probe's Live followed by its build's and the
	// output's is its child's. Output sets it on every node of the finished
	// plan. The engine holds, probes, spills and stages rows of this width;
	// only the wrapper's projection and a result Sink see Schema.
	Live *relation.Schema

	// EstRows is the optimizer's cardinality estimate for this operator's
	// result; used for memory-requirement and materialization-cost
	// estimates before exact sizes are known.
	EstRows float64

	parent *Node
	// dec is the plan's pipeline-chain decomposition, set by Output on the
	// output node only.
	dec *Decomposition
}

// Parent returns the consumer of this node's output (nil for the root).
func (n *Node) Parent() *Node { return n.parent }

// Builder constructs well-formed QEPs with sequential node IDs.
type Builder struct {
	nextID int
}

// NewBuilder returns a fresh plan builder.
func NewBuilder() *Builder { return &Builder{} }

func (b *Builder) id() int {
	b.nextID++
	return b.nextID
}

// Scan creates a wrapper scan of rel with an optional predicate.
func (b *Builder) Scan(rel *relation.Relation, pred *Pred) (*Node, error) {
	if rel == nil {
		return nil, fmt.Errorf("plan: scan of nil relation")
	}
	if pred != nil && rel.Schema.IndexOf(pred.Col) < 0 {
		return nil, fmt.Errorf("plan: scan of %s: predicate column %s not in schema", rel.Name, pred.Col)
	}
	return &Node{
		ID:      b.id(),
		Kind:    KindScan,
		Rel:     rel,
		Pred:    pred,
		Schema:  rel.Schema,
		EstRows: float64(rel.Cardinality),
	}, nil
}

// HashJoin creates a hash join: build (blocking) and probe (pipelinable)
// inputs joined on buildKey = probeKey.
func (b *Builder) HashJoin(build, probe *Node, buildKey, probeKey relation.ColRef) (*Node, error) {
	if build == nil || probe == nil {
		return nil, fmt.Errorf("plan: hash join with nil input")
	}
	if build.parent != nil || probe.parent != nil {
		return nil, fmt.Errorf("plan: hash join input already consumed by another operator")
	}
	if build.Schema.IndexOf(buildKey) < 0 {
		return nil, fmt.Errorf("plan: build key %s not in build schema %s", buildKey, build.Schema)
	}
	if probe.Schema.IndexOf(probeKey) < 0 {
		return nil, fmt.Errorf("plan: probe key %s not in probe schema %s", probeKey, probe.Schema)
	}
	n := &Node{
		ID:       b.id(),
		Kind:     KindHashJoin,
		Build:    build,
		Probe:    probe,
		BuildKey: buildKey,
		ProbeKey: probeKey,
		// Result tuples are probe ++ build, matching the execution order:
		// a probe tuple finds its matches in the hash table.
		Schema: probe.Schema.Join(build.Schema),
	}
	build.parent = n
	probe.parent = n
	return n, nil
}

// Output wraps the root operator; the output node is where result tuples
// leave the engine. It finishes the plan: every node's Live is set here, and
// the plan is validated and decomposed into its pipeline chains, so a plan
// that cannot be decomposed (one scanning a relation twice, say) is refused
// here rather than by the run that would execute it.
func (b *Builder) Output(child *Node) (*Node, error) {
	if child == nil {
		return nil, fmt.Errorf("plan: output of nil child")
	}
	if child.parent != nil {
		return nil, fmt.Errorf("plan: output input already consumed by another operator")
	}
	n := &Node{
		ID:      b.id(),
		Kind:    KindOutput,
		Child:   child,
		Schema:  child.Schema,
		EstRows: child.EstRows,
	}
	child.parent = n
	var refs []relation.ColRef
	walk(n, func(m *Node) error { //nolint:errcheck // fn never fails
		switch {
		case m.Kind == KindHashJoin:
			refs = append(refs, m.BuildKey, m.ProbeKey)
		case m.Pred != nil:
			refs = append(refs, m.Pred.Col)
		}
		return nil
	})
	walk(n, func(m *Node) error { //nolint:errcheck // fn never fails
		m.Live = &relation.Schema{}
		for _, c := range m.Schema.Cols {
			if slices.Contains(refs, c) {
				m.Live.Cols = append(m.Live.Cols, c)
			}
		}
		return nil
	})
	dec, err := decompose(n)
	if err != nil {
		return nil, err
	}
	n.dec = dec
	return n, nil
}

// walk visits every node of the plan rooted at n in post-order (inputs
// before consumers). It stops early if fn returns an error.
func walk(n *Node, fn func(*Node) error) error {
	if n == nil {
		return nil
	}
	switch n.Kind {
	case KindHashJoin:
		if err := walk(n.Build, fn); err != nil {
			return err
		}
		if err := walk(n.Probe, fn); err != nil {
			return err
		}
	case KindOutput:
		if err := walk(n.Child, fn); err != nil {
			return err
		}
	}
	return fn(n)
}

// Scans returns every wrapper scan of the plan, in post-order.
func Scans(root *Node) []*Node {
	var out []*Node
	walk(root, func(n *Node) error { //nolint:errcheck // fn never fails
		if n.Kind == KindScan {
			out = append(out, n)
		}
		return nil
	})
	return out
}

// joins returns every hash join of the plan, in post-order.
func joins(root *Node) []*Node {
	var out []*Node
	walk(root, func(n *Node) error { //nolint:errcheck // fn never fails
		if n.Kind == KindHashJoin {
			out = append(out, n)
		}
		return nil
	})
	return out
}

// validate checks structural invariants of a complete plan: a single output
// root, every relation scanned at most once, parent pointers consistent and
// join keys resolvable.
func validate(root *Node) error {
	if root == nil {
		return fmt.Errorf("plan: nil root")
	}
	if root.Kind != KindOutput {
		return fmt.Errorf("plan: root must be an output node, got %s", root.Kind)
	}
	seen := make(map[string]bool)
	return walk(root, func(n *Node) error {
		switch n.Kind {
		case KindScan:
			if seen[n.Rel.Name] {
				return fmt.Errorf("plan: relation %s scanned twice", n.Rel.Name)
			}
			seen[n.Rel.Name] = true
		case KindHashJoin:
			if n.Build.parent != n || n.Probe.parent != n {
				return fmt.Errorf("plan: node %d has inconsistent child parents", n.ID)
			}
			if n.Build.Schema.IndexOf(n.BuildKey) < 0 || n.Probe.Schema.IndexOf(n.ProbeKey) < 0 {
				return fmt.Errorf("plan: node %d has unresolved join keys", n.ID)
			}
		case KindOutput:
			if n != root {
				return fmt.Errorf("plan: interior output node %d", n.ID)
			}
			if n.Child.parent != n {
				return fmt.Errorf("plan: output child parent inconsistent")
			}
		}
		return nil
	})
}
