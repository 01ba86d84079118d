package mem

import (
	"slices"
	"testing"

	"dqs/internal/relation"
	"dqs/internal/sim"
)

// tempPool is an IntRecycler over a plain list, handing out the best-fitting
// temp as the engine's pooled scratch does: the benchmark's temps reuse one
// temp as repeated runs do, and the fuzzer's runs reuse every temp of the
// run before.
type tempPool struct {
	temps []*Temp
	caps  []int
}

func (p *tempPool) GetTemp(capacity int) *Temp {
	at := -1
	for i, c := range p.caps {
		if c >= capacity && (at < 0 || c < p.caps[at]) {
			at = i
		}
	}
	if at < 0 {
		return nil
	}
	t := p.temps[at]
	p.temps, p.caps = slices.Delete(p.temps, at, at+1), slices.Delete(p.caps, at, at+1)
	return t
}

func (p *tempPool) PutTemp(t *Temp, capacity int) {
	p.temps, p.caps = append(p.temps, t), append(p.caps, capacity)
}

// BenchmarkTempAppendPop times the engine's temp path at Figure 5's A⋈E
// live width: 15 000 rows of A⋈E's three live columns (of five), appended to
// a sized temp and popped back page by page through a prefetching reader
// into one reused batch. ns/tuple covers one append and one pop of a tuple.
func BenchmarkTempAppendPop(b *testing.B) {
	const rows = 15000
	p := sim.DefaultParams()
	schema := relation.NewSchema("AE", "a_k1", "a_k2", "e_k1")
	row := make(relation.Tuple, schema.Width())
	dst := relation.NewBatch(schema.Width())
	pool := &tempPool{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		clock := sim.NewClock()
		store := NewTempStore(p, sim.NewDisk(p, clock), clock)
		store.SetPool(pool)
		t := store.CreateSized("AE", schema, rows)
		for r := range int64(rows) {
			row[0], row[1], row[2] = r, r+1, r
			t.Append(row)
		}
		t.Close()
		rd := t.NewReader(4)
		for !rd.Exhausted() {
			dst.Reset(schema.Width())
			if rd.Pop(clock.Now(), dst, rows) == 0 {
				at, _ := rd.NextArrival()
				clock.Stall(at)
			}
		}
		store.Reclaim()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/rows, "ns/tuple")
}
