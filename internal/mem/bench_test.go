package mem

import (
	"testing"

	"dqs/internal/relation"
	"dqs/internal/sim"
)

// arenaSlot is a one-arena IntRecycler: the benchmark's temps reuse one
// arena as the engine's pooled scratch lets repeated runs do.
type arenaSlot struct{ buf []int64 }

func (a *arenaSlot) GetTempInts(capacity int) []int64 {
	if cap(a.buf) < capacity {
		return nil
	}
	b := a.buf
	a.buf = nil
	return b
}

func (a *arenaSlot) PutTempInts(b []int64) { a.buf = b }

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
	pool := &arenaSlot{}
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
