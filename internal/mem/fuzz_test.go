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
// chunk, stall the clock, and Reserve or FreeUp from a ledger holder; a
// close whose argument is 16 or more ends the run instead. Every popped
// column is checked against the model rows' projection, and the ledger's
// Used == HeldTotal + ResidentBytes after every op. At the end of a run
// every temp is closed and read to its end, which must leave no resident
// byte, and Reclaim must leave only the holder's bytes. Reclaim hands the
// run's temps to a pool, and the next run — a fresh clock, disk, store and
// ledger, as the next mediator gets — builds its temps from the recycled
// headers, so state a recycled temp or reader kept from its last run shows
// in the next run's columns or ledger.
func FuzzTempOps(f *testing.F) {
	f.Add([]byte{0x00, 0xf9, 0x02, 0x03, 0x04, 0x84, 0x35, 0x04, 0x06})
	f.Add([]byte{0x08, 0xf9, 0x71, 0x02, 0x1b, 0x04, 0x04, 0x07, 0x04, 0x1e})
	f.Fuzz(func(t *testing.T, in []byte) {
		if err := fuzzTempOps(in); err != nil {
			t.Fatal(err)
		}
	})
}

// fuzzRun is one run of FuzzTempOps: what one mediator holds.
type fuzzRun struct {
	clock *sim.Clock
	store *TempStore
	m     *Manager
	h     HolderID
	temps []*fuzzTemp
}

// newFuzzRun starts a run whose store draws its temps from pool.
func newFuzzRun(p sim.Params, pool IntRecycler) (*fuzzRun, error) {
	r := &fuzzRun{clock: sim.NewClock()}
	r.store = NewTempStore(p, sim.NewDisk(p, r.clock), r.clock)
	r.store.SetPool(pool)
	var err error
	if r.m, err = NewManager(16 * int64(p.TuplesPerPage()*p.TupleSize)); err != nil {
		return nil, err
	}
	r.store.SetGovernor(r.m, true)
	r.h = r.m.Bind("", "fuzz")
	return r, nil
}

func fuzzTempOps(in []byte) error {
	p := sim.DefaultParams()
	p.PageSize = 3 * p.TupleSize
	pb := int64(p.TuplesPerPage() * p.TupleSize)
	pool := &tempPool{}
	r, err := newFuzzRun(p, pool)
	if err != nil {
		return err
	}
	var val int64
	pick := func(arg int) *fuzzTemp {
		if len(r.temps) == 0 {
			return nil
		}
		return r.temps[arg%len(r.temps)]
	}
	for step, b := range in {
		arg := int(b >> 3)
		clock, store, m, h := r.clock, r.store, r.m, r.h
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
			tmp := create(fmt.Sprintf("t%d", len(r.temps)), relation.NewSchema("x", cols...), arg%5)
			r.temps = append(r.temps, &fuzzTemp{temp: tmp, proj: keep})
		case 1: // append arg rows to the newest open temp
			if ft := pick(len(r.temps) - 1); ft != nil && !ft.temp.Closed() {
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
		case 2: // close; from 16 on, end the run and start the next
			if arg >= 16 {
				if err := r.end(); err != nil {
					return fmt.Errorf("step %d: %w", step, err)
				}
				if r, err = newFuzzRun(p, pool); err != nil {
					return err
				}
			} else if ft := pick(arg); ft != nil {
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
			if err := fuzzPop(r.temps, clock.Now(), arg, p.TuplesPerPage()); err != nil {
				return fmt.Errorf("step %d: %w", step, err)
			}
		case 5: // unpop within the last chunk
			for _, ft := range r.temps {
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
		if err := r.check(); err != nil {
			return fmt.Errorf("step %d (op %#x): %w", step, b, err)
		}
	}
	return r.end()
}

// check tests the ledger's Used == HeldTotal + ResidentBytes, and every
// temp's page bookkeeping: one residency flag per written page, resident
// bytes that count the flagged pages and sum to the ledger's, and a row
// count that fills the written pages (all but the last, once closed).
func (r *fuzzRun) check() error {
	m, perPage, pb := r.m, r.store.perPage, r.store.pageBytes
	if m.Used() != m.HeldTotal()+m.ResidentBytes() {
		return fmt.Errorf("used %d != held %d + resident %d", m.Used(), m.HeldTotal(), m.ResidentBytes())
	}
	var resBytes int64
	for _, ft := range r.temps {
		t := ft.temp
		pages := len(t.pageDone)
		if len(t.resident) != pages || t.resBytes != int64(t.ResidentPages())*pb {
			return fmt.Errorf("%s: %d residency flags for %d pages, %d resident bytes for %d flagged",
				t.name, len(t.resident), pages, t.resBytes, t.ResidentPages())
		}
		if t.closed && (t.nrows > pages*perPage || t.nrows <= (pages-1)*perPage) ||
			!t.closed && t.nrows != pages*perPage+t.inPage {
			return fmt.Errorf("%s: %d rows in %d pages and %d buffered, closed %v", t.name, t.nrows, pages, t.inPage, t.closed)
		}
		resBytes += t.resBytes
	}
	if resBytes != m.ResidentBytes() {
		return fmt.Errorf("temps hold %d resident bytes, the ledger %d", resBytes, m.ResidentBytes())
	}
	return nil
}

// end closes every temp of the run and reads it to its end, checking each
// chunk, then checks that no resident byte is left and reclaims the store,
// which must leave only the holder's bytes.
func (r *fuzzRun) end() error {
	perPage := r.store.perPage
	for _, ft := range r.temps {
		ft.temp.Close()
		if ft.r == nil {
			ft.r = ft.temp.NewReader(1)
		}
		for ft.r.Remaining() > 0 {
			if at, ok := ft.r.NextArrival(); ok {
				r.clock.Stall(at)
			}
			if err := fuzzPop([]*fuzzTemp{ft}, r.clock.Now(), perPage, perPage); err != nil {
				return fmt.Errorf("drain: %w", err)
			}
		}
	}
	if res := r.m.ResidentBytes(); res != 0 {
		return fmt.Errorf("%d resident bytes after every temp was read to its end", res)
	}
	r.store.Reclaim()
	if r.m.Used() != r.m.Held(r.h) {
		return fmt.Errorf("used %d after Reclaim, holder keeps %d", r.m.Used(), r.m.Held(r.h))
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
