package mem

import (
	"fmt"
	"testing"
	"time"

	"dqs/internal/relation"
	"dqs/internal/sim"
)

// fuzzWidth is the width of every model row; each temp is given the
// projection of its model rows onto the positions its keep mask names, as
// the engine gives a temp a plan node's live columns.
const fuzzWidth = 4

// fuzzTemp is one fuzzed temp beside its brute-force model: every model row,
// the positions the temp is given, and the reader's model position and the
// size of its last popped chunk (the most UnpopN may give back).
type fuzzTemp struct {
	temp  *Temp
	proj  []int
	rows  [][]int64
	r     *Reader
	pos   int
	chunk int
}

// FuzzTempOps interprets its input as an op stream over temps written under
// a grant with three-tuple pages, so page edges, residency, spills and
// write-through come often. Each byte is one op (low three bits) with its
// argument (high bits): create a synchronous or asynchronous temp whose
// width is its keep mask's popcount, append rows, close, open a synchronous
// or prefetching reader, Pop with a random max, UnpopN within the last
// chunk, stall the clock, and Reserve or FreeUp from a ledger holder. Every
// popped column is checked against the model rows' projection, and the
// ledger's
// Used == HeldTotal + ResidentBytes after every op. At the end every temp is
// closed and read to its end, which must leave no resident byte, and
// Reclaim must leave only the holder's bytes.
func FuzzTempOps(f *testing.F) {
	f.Add([]byte{0x00, 0xf9, 0x02, 0x03, 0x04, 0x84, 0x35, 0x04, 0x06})
	f.Add([]byte{0x08, 0xf9, 0x71, 0x02, 0x1b, 0x04, 0x04, 0x07, 0x04, 0x1e})
	f.Fuzz(func(t *testing.T, in []byte) {
		if err := fuzzTempOps(in); err != nil {
			t.Fatal(err)
		}
	})
}

func fuzzTempOps(in []byte) error {
	p := sim.DefaultParams()
	p.PageSize = 3 * p.TupleSize
	clock := sim.NewClock()
	store := NewTempStore(p, sim.NewDisk(p, clock), clock)
	pb := int64(p.TuplesPerPage() * p.TupleSize)
	m, err := NewManager(16 * pb)
	if err != nil {
		return err
	}
	store.SetGovernor(m, true)
	h := m.Bind("", "fuzz")
	var (
		temps []*fuzzTemp
		val   int64
	)
	pick := func(arg int) *fuzzTemp {
		if len(temps) == 0 {
			return nil
		}
		return temps[arg%len(temps)]
	}
	for step, b := range in {
		arg := int(b >> 3)
		switch b & 7 {
		case 0: // create; bit 0 of arg: sync, bits 1-4: keep mask
			keep, cols := []int{}, []string{}
			for c := 0; c < fuzzWidth; c++ {
				if arg>>(1+c)&1 == 1 {
					keep, cols = append(keep, c), append(cols, string(rune('a'+c)))
				}
			}
			create := store.CreateSized
			if arg&1 == 1 {
				create = store.CreateSyncSized
			}
			tmp := create(fmt.Sprintf("t%d", len(temps)), relation.NewSchema("x", cols...), arg%5)
			temps = append(temps, &fuzzTemp{temp: tmp, proj: keep})
		case 1: // append arg rows to the newest open temp
			if ft := pick(len(temps) - 1); ft != nil && !ft.temp.Closed() {
				for range arg {
					row := make([]int64, fuzzWidth)
					for c := range row {
						val++
						row[c] = val
					}
					stored := make(relation.Tuple, len(ft.proj))
					for c, p := range ft.proj {
						stored[c] = row[p]
					}
					ft.temp.Append(stored)
					ft.rows = append(ft.rows, row)
				}
			}
		case 2: // close
			if ft := pick(arg); ft != nil {
				ft.temp.Close()
			}
		case 3: // open a reader; bit 0: sync, bits 1-2: prefetch
			if ft := pick(arg >> 3); ft != nil && ft.temp.Closed() && ft.r == nil {
				if arg&1 == 1 {
					ft.r = ft.temp.NewSyncReader()
				} else {
					ft.r = ft.temp.NewReader(arg >> 1 & 3)
				}
			}
		case 4: // pop up to arg tuples from the first unfinished reader
			if err := fuzzPop(temps, clock.Now(), arg, p.TuplesPerPage()); err != nil {
				return fmt.Errorf("step %d: %w", step, err)
			}
		case 5: // unpop within the last chunk
			for _, ft := range temps {
				if ft.r != nil && ft.chunk > 0 {
					u := arg % (ft.chunk + 1)
					ft.r.UnpopN(u)
					ft.pos -= u
					ft.chunk -= u
					break
				}
			}
		case 6: // stall the clock arg page transfers ahead
			clock.Stall(clock.Now() + time.Duration(arg)*p.PageTransferTime())
		case 7: // bit 0: FreeUp, else Reserve; the rest scales a quarter page
			n := int64(arg>>1) * pb / 4
			if arg&1 == 1 {
				m.FreeUp(n)
			} else if !m.Reserve(h, n) && m.Held(h) > 0 {
				m.Release(h, m.Held(h))
			}
		}
		if used := m.Used(); used != m.HeldTotal()+m.ResidentBytes() {
			return fmt.Errorf("step %d (op %#x): used %d != held %d + resident %d",
				step, b, used, m.HeldTotal(), m.ResidentBytes())
		}
	}
	for _, ft := range temps {
		ft.temp.Close()
		if ft.r == nil {
			ft.r = ft.temp.NewReader(1)
		}
		for ft.r.Remaining() > 0 {
			if at, ok := ft.r.NextArrival(); ok {
				clock.Stall(at)
			}
			if err := fuzzPop([]*fuzzTemp{ft}, clock.Now(), p.TuplesPerPage(), p.TuplesPerPage()); err != nil {
				return fmt.Errorf("drain: %w", err)
			}
		}
	}
	if res := m.ResidentBytes(); res != 0 {
		return fmt.Errorf("%d resident bytes after every temp was read to its end", res)
	}
	store.Reclaim()
	if m.Used() != m.Held(h) {
		return fmt.Errorf("used %d after Reclaim, holder keeps %d", m.Used(), m.Held(h))
	}
	return nil
}

// fuzzPop pops up to max tuples at now from the first of temps whose reader
// has tuples left and checks the chunk against its model: within the page,
// no more than Available promised and, when it promised any, at least one;
// column c equal to the model rows at position proj[c].
func fuzzPop(temps []*fuzzTemp, now time.Duration, max, perPage int) error {
	for _, ft := range temps {
		if ft.r == nil || ft.r.Remaining() == 0 {
			continue
		}
		avail := ft.r.Available(now)
		dst := relation.NewBatch(len(ft.proj))
		n := ft.r.Pop(now, dst, max)
		switch {
		case n > max || n > avail || (avail > 0 && max > 0 && n == 0):
			return fmt.Errorf("%s: popped %d with max %d and %d available", ft.temp.name, n, max, avail)
		case ft.pos%perPage+n > perPage:
			return fmt.Errorf("%s: chunk of %d at %d crosses a page edge", ft.temp.name, n, ft.pos)
		case dst.Len() != n:
			return fmt.Errorf("%s: batch holds %d of %d popped", ft.temp.name, dst.Len(), n)
		}
		for c, p := range ft.proj {
			for i, v := range dst.Col(c) {
				if want := ft.rows[ft.pos+i][p]; v != want {
					return fmt.Errorf("%s: row %d column %d = %d, want %d", ft.temp.name, ft.pos+i, p, v, want)
				}
			}
		}
		ft.pos += n
		ft.chunk = n
		if ft.r.Remaining() != len(ft.rows)-ft.pos {
			return fmt.Errorf("%s: %d remaining, model has %d", ft.temp.name, ft.r.Remaining(), len(ft.rows)-ft.pos)
		}
		return nil
	}
	return nil
}
