package plan

import (
	"fmt"
	"sort"
	"strings"
)

// Chain is one maximal pipeline chain (PC) of a QEP: a wrapper scan followed
// by the hash joins it probes through, ending either at the blocking build
// edge of a parent join or at the query output (paper §2.2).
type Chain struct {
	// ID indexes the chain within its decomposition.
	ID int
	// Name is "p_X" where X is the scanned relation.
	Name string
	// Scan is the leaf wrapper scan.
	Scan *Node
	// Joins are the hash joins whose probe input this chain feeds,
	// bottom-up.
	Joins []*Node
	// BuildsFor is the join whose hash table this chain's output builds,
	// or nil when the chain ends at the query output.
	BuildsFor *Node
}

// Root returns the topmost node of the chain (the last probed join, or the
// scan for a bare build chain).
func (c *Chain) Root() *Node {
	if len(c.Joins) > 0 {
		return c.Joins[len(c.Joins)-1]
	}
	return c.Scan
}

// Ops returns the number of operators in the chain (scan plus joins).
func (c *Chain) Ops() int { return 1 + len(c.Joins) }

// String renders the chain as "p_A: scan(A) -> J3 -> J5 => build(J7)".
func (c *Chain) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: scan(%s)", c.Name, c.Scan.Rel.Name)
	for _, j := range c.Joins {
		fmt.Fprintf(&b, " -> probe(J%d)", j.ID)
	}
	if c.BuildsFor != nil {
		fmt.Fprintf(&b, " => build(J%d)", c.BuildsFor.ID)
	} else {
		b.WriteString(" => output")
	}
	return b.String()
}

// Decomposition is the set of pipeline chains of a QEP plus the dependency
// structure between them.
type Decomposition struct {
	Root   *Node
	Chains []*Chain

	// builderOf maps a join node ID to the chain that builds its hash
	// table.
	builderOf map[int]*Chain
	// chainOfScan maps a scanned relation name to its chain.
	chainOfScan map[string]*Chain
}

// Decompose computes the pipeline-chain decomposition of a validated plan.
func Decompose(root *Node) (*Decomposition, error) {
	if err := Validate(root); err != nil {
		return nil, err
	}
	d := &Decomposition{
		Root:        root,
		builderOf:   make(map[int]*Chain),
		chainOfScan: make(map[string]*Chain),
	}
	scans := Scans(root)
	// Deterministic chain numbering: by relation name.
	sort.Slice(scans, func(i, j int) bool { return scans[i].Rel.Name < scans[j].Rel.Name })
	for _, s := range scans {
		c := &Chain{
			ID:   len(d.Chains),
			Name: "p_" + s.Rel.Name,
			Scan: s,
		}
		// Climb while we feed the pipelinable (probe) side.
		n := s
		for n.parent != nil {
			p := n.parent
			if p.Kind == KindHashJoin && p.Probe == n {
				c.Joins = append(c.Joins, p)
				n = p
				continue
			}
			if p.Kind == KindHashJoin && p.Build == n {
				c.BuildsFor = p
				break
			}
			if p.Kind == KindOutput {
				break
			}
			return nil, fmt.Errorf("plan: unexpected parent kind %s above node %d", p.Kind, n.ID)
		}
		if c.BuildsFor != nil {
			d.builderOf[c.BuildsFor.ID] = c
		}
		d.Chains = append(d.Chains, c)
		d.chainOfScan[s.Rel.Name] = c
	}
	// Sanity: every join's build side must be produced by exactly one chain.
	for _, j := range Joins(root) {
		if d.builderOf[j.ID] == nil {
			return nil, fmt.Errorf("plan: join J%d has no building chain", j.ID)
		}
	}
	return d, nil
}

// ChainOf returns the chain scanning the named relation.
func (d *Decomposition) ChainOf(rel string) (*Chain, bool) {
	c, ok := d.chainOfScan[rel]
	return c, ok
}

// BuilderOf returns the chain that builds the hash table of join j.
func (d *Decomposition) BuilderOf(j *Node) *Chain { return d.builderOf[j.ID] }

// ProberOf returns the chain that probes the hash table of join j: the chain
// of the scan at the bottom of j's probe edges. In a tree plan every table
// has exactly one prober, so the chains a chain c blocks (paper §4.1) form a
// path: for j := c.BuildsFor; j != nil; j = d.ProberOf(j).BuildsFor.
func (d *Decomposition) ProberOf(j *Node) *Chain {
	for j.Kind == KindHashJoin {
		j = j.Probe
	}
	return d.chainOfScan[j.Rel.Name]
}

// Ancestors returns the direct ancestors of chain c: the chains connected
// to c by one blocking edge, i.e. the builders of the hash tables c probes
// (paper §4.1: p1 blocks p2 iff a blocking edge directly connects them).
func (d *Decomposition) Ancestors(c *Chain) []*Chain {
	out := make([]*Chain, 0, len(c.Joins))
	for _, j := range c.Joins {
		out = append(out, d.builderOf[j.ID])
	}
	return out
}

// TopoOrder returns the chains in a blocking-dependency topological order
// (every chain after all of its ancestors). The ancestor relation of a tree
// plan is always acyclic, so this cannot fail on a validated plan.
func (d *Decomposition) TopoOrder() []*Chain {
	order := make([]*Chain, 0, len(d.Chains))
	done := make(map[int]bool)
	var visit func(*Chain)
	visit = func(c *Chain) {
		if done[c.ID] {
			return
		}
		done[c.ID] = true
		for _, a := range d.Ancestors(c) {
			visit(a)
		}
		order = append(order, c)
	}
	for _, c := range d.Chains {
		visit(c)
	}
	return order
}

// String renders the whole decomposition, one chain per line, with direct
// ancestors.
func (d *Decomposition) String() string {
	var b strings.Builder
	for _, c := range d.Chains {
		b.WriteString(c.String())
		anc := d.Ancestors(c)
		if len(anc) > 0 {
			names := make([]string, len(anc))
			for i, a := range anc {
				names[i] = a.Name
			}
			fmt.Fprintf(&b, "   [ancestors: %s]", strings.Join(names, ", "))
		}
		b.WriteByte('\n')
	}
	return b.String()
}
