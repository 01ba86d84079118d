package relation

import (
	"fmt"

	"dqs/internal/sim"
)

// Generator produces synthetic tables whose join selectivities are
// controllable: a join column filled uniformly over a domain D against
// another column over the same domain yields an expected join cardinality of
// |L|*|R|/D (the classical uniformity assumption, which the optimizer's
// estimates also use, so estimates and reality agree up to sampling noise).
type Generator struct {
	rng *sim.RNG
}

// NewGenerator returns a generator drawing from the given random stream.
func NewGenerator(rng *sim.RNG) *Generator { return &Generator{rng: rng} }

// ColumnSpec tells the generator how to fill one column.
type ColumnSpec struct {
	Col    string
	Domain int64 // values drawn uniformly from [0, Domain); 0 means row id
}

// Generate materializes one table. Columns not mentioned in specs are filled
// with the row identifier. It returns an error for unknown columns.
func (g *Generator) Generate(rel *Relation, specs ...ColumnSpec) (*Table, error) {
	byCol := make(map[string]int64, len(specs))
	for _, s := range specs {
		ref := ColRef{Rel: rel.Name, Col: s.Col}
		if rel.Schema.IndexOf(ref) < 0 {
			return nil, fmt.Errorf("relation: generate %q: unknown column %q", rel.Name, s.Col)
		}
		if s.Domain < 0 {
			return nil, fmt.Errorf("relation: generate %q: negative domain for column %q", rel.Name, s.Col)
		}
		byCol[s.Col] = s.Domain
	}
	rows := make([]Tuple, rel.Cardinality)
	width := rel.Schema.Width()
	// One flat backing array keeps the generated data compact.
	backing := make([]int64, rel.Cardinality*width)
	for i := range rows {
		row := backing[i*width : (i+1)*width : (i+1)*width]
		for j, ref := range rel.Schema.Cols {
			if d := byCol[ref.Col]; d > 0 {
				row[j] = g.rng.Int63n(d)
			} else {
				row[j] = int64(i)
			}
		}
		rows[i] = row
	}
	return &Table{Rel: rel, Rows: rows}, nil
}

// MustGenerate is Generate but panics on error.
func (g *Generator) MustGenerate(rel *Relation, specs ...ColumnSpec) *Table {
	t, err := g.Generate(rel, specs...)
	if err != nil {
		panic(err)
	}
	return t
}
