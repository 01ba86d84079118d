package mem

import (
	"fmt"
	"slices"
	"time"

	"dqs/internal/relation"
	"dqs/internal/sim"
)

// TempStore hands out temporary relations backed by the simulated local
// disk. Materialization fragments write them; complement fragments read
// them back with asynchronous, prefetching I/O (the paper's §4.4 cost
// assumptions).
type TempStore struct {
	params  sim.Params
	disk    *sim.Disk
	clock   *sim.Clock
	nextObj int
	pool    IntRecycler
	// first and last end the list of the temps created so far, in creation
	// order and linked through Temp.next, so creating a temp grows no slice.
	first, last *Temp

	// perPage is params.TuplesPerPage(), computed once: Append and every
	// reader position divide by it. pageBytes is the grant charge for one
	// resident page; partial trailing pages are charged as full pages,
	// matching the disk model's page-granular transfers.
	perPage   int
	pageBytes int64

	// grant, when set, keeps freshly written pages of asynchronous temps
	// memory-resident under the grant; they spill to disk only when the
	// ledger evicts them, and a page it refuses is written through.
	grant *Manager
}

// IntRecycler supplies and reclaims temp relations, so a temp's storage —
// its flat []int64 arena, its page bookkeeping and the reader it is read by —
// is recycled across simulator runs. GetTemp returns a pooled temp whose
// arena holds at least capacity values, or nil (start from scratch), so a
// large materialization hint finds the pool's grown arena, not the
// last-returned (possibly tiny) one. PutTemp receives a temp its store has
// reclaimed, emptied to its capacity, with its arena's capacity in values.
type IntRecycler interface {
	GetTemp(capacity int) *Temp
	PutTemp(t *Temp, capacity int)
}

// NewTempStore binds a store to the mediator's disk and clock.
func NewTempStore(params sim.Params, disk *sim.Disk, clock *sim.Clock) *TempStore {
	s := &TempStore{}
	s.Reset(params, disk, clock)
	return s
}

// Reset returns the store to the state NewTempStore(params, disk, clock)
// builds, so a pooled mediator reuses it. Reclaim the store's temps first.
func (s *TempStore) Reset(params sim.Params, disk *sim.Disk, clock *sim.Clock) {
	perPage := params.TuplesPerPage()
	*s = TempStore{params: params, disk: disk, clock: clock, nextObj: 1,
		perPage: perPage, pageBytes: int64(perPage) * int64(params.TupleSize)}
}

// SetPool attaches a temp recycler; subsequent Creates draw their temps
// from it and Reclaim returns every temp created so far.
func (s *TempStore) SetPool(p IntRecycler) { s.pool = p }

// SetGovernor attaches the grant's ledger: asynchronous temps then keep
// freshly written pages resident under the grant (spilled on demand, oldest
// first) instead of writing every page to disk eagerly; synchronous temps —
// the classic-iterator materialize-all path — are unaffected. The bool is
// ignored. It stays only because bench/ passes it — remove with the next
// [benchmark] PR.
func (s *TempStore) SetGovernor(m *Manager, _ bool) { s.grant = m }

// Reclaim hands every created temp — header, arena, page bookkeeping and
// reader — back to the pool. The store, its temps and their readers must
// not be used afterwards: callers reclaim only when the whole simulated run
// is over.
func (s *TempStore) Reclaim() {
	for t := s.first; t != nil; {
		next := t.next
		t.releaseAllResident()
		if s.pool != nil {
			t.empty()
			s.pool.PutTemp(t, cap(t.data))
		}
		t = next
	}
	s.first, s.last = nil, nil
}

// CreateSized opens a new temporary relation with the given schema, written
// with asynchronous I/O (the §4.4 cost assumption for materialization
// fragments). The temp stores every column of its schema; the engine gives
// it a plan node's Live schema, so it holds only the columns the plan
// reads. rows is a row-count hint: the arena is sized for about rows tuples
// up front — the smallest pooled arena that holds them, so repeated sized
// materializations reach steady state with no arena allocation — and a
// materialization that stays within the hint never re-copies its arena.
// Neither the width nor the hint changes page bookkeeping or I/O charges.
func (s *TempStore) CreateSized(name string, schema *relation.Schema, rows int) *Temp {
	pages := (max(rows, 0) + s.perPage - 1) / s.perPage
	need := pages * s.perPage * schema.Width()
	var t *Temp
	if s.pool != nil {
		t = s.pool.GetTemp(need)
	}
	if t == nil {
		t = &Temp{}
	}
	t.store, t.name, t.object, t.width = s, name, s.nextObj, schema.Width()
	s.nextObj++
	t.data = slices.Grow(t.data, need)
	t.pageDone = slices.Grow(t.pageDone, pages)
	t.resident = slices.Grow(t.resident, pages)
	if s.last == nil {
		s.first = t
	} else {
		s.last.next = t
	}
	s.last = t
	return t
}

// CreateSyncSized is CreateSized for a temp whose page writes hold the CPU
// until the transfer completes — the behaviour of a strategy built on the
// classic synchronous iterator engine, like materialize-all.
func (s *TempStore) CreateSyncSized(name string, schema *relation.Schema, rows int) *Temp {
	t := s.CreateSized(name, schema, rows)
	t.sync = true
	return t
}

// Temp is one temporary relation: tuples plus the virtual times at which
// each page became durable on disk. It stores its rows in one flat []int64
// arena laid out page after page and column-major within a page: column c
// of row i is at pageBase(i) + c·perPage + i%perPage.
// Materializing n tuples costs a few geometric arena growths instead of one
// allocation per tuple, and a reader pops one contiguous run per column.
type Temp struct {
	store  *TempStore
	name   string
	object int

	sync     bool
	width    int     // values per row, from the schema
	data     []int64 // the page-major, column-major arena
	nrows    int
	pageDone []time.Duration // write-completion time per full page
	inPage   int             // tuples buffered in the current page
	closed   bool

	// Residency state. resident is aligned with pageDone: true means the
	// page's disk write is deferred — it is available at its (in-memory)
	// completion time and holds one page of grant until the ledger spills
	// it or its reader fully consumes it.
	resident      []bool
	resBytes      int64 // grant bytes currently held by resident pages
	consumedPages int   // pages fully consumed by the reader (release watermark)
	resScan       int   // lowest index that can still be resident (spill cursor)
	inSpillList   bool  // listed in the ledger's spill-candidate set

	// rd is the reader the temp is read by: NewReader hands it out first,
	// and it is recycled with the temp, its readyAt capacity included.
	rd Reader
	// next is the temp its store created after this one.
	next *Temp
}

// empty resets a reclaimed temp to its zero state, keeping only the
// capacity of its arena, its page bookkeeping and its reader's readyAt.
func (t *Temp) empty() {
	*t = Temp{data: t.data[:0], pageDone: t.pageDone[:0], resident: t.resident[:0],
		rd: Reader{readyAt: t.rd.readyAt[:0]}}
}

// Len returns the number of appended tuples.
func (t *Temp) Len() int { return t.nrows }

// pageVals is the number of arena values one page occupies.
func (t *Temp) pageVals() int { return t.store.perPage * t.width }

// Pages returns the number of pages written so far.
func (t *Temp) Pages() int { return len(t.pageDone) }

// Append adds one row of the temp's width, copying it into the arena;
// the caller's backing array may be reused afterwards. When a page fills
// up, its write is issued asynchronously: the caller's CPU is charged the
// I/O-issue cost, the disk timeline absorbs the transfer, and the completion
// time is recorded so readers never see a page before it is durable.
func (t *Temp) Append(tup relation.Tuple) {
	if t.closed {
		panic(fmt.Sprintf("mem: append to closed temp %q", t.name))
	}
	if len(tup) != t.width {
		panic(fmt.Sprintf("mem: width-%d tuple appended to temp %q of width %d", len(tup), t.name, t.width))
	}
	if t.inPage == 0 {
		t.data = slices.Grow(t.data, t.pageVals())[:len(t.data)+t.pageVals()]
	}
	at := len(t.data) - t.pageVals() + t.inPage
	for _, v := range tup {
		t.data[at] = v
		at += t.store.perPage
	}
	t.nrows++
	t.inPage++
	if t.inPage == t.store.perPage {
		t.flushPage()
	}
}

func (t *Temp) flushPage() {
	id := sim.PageID{Object: t.object, Page: len(t.pageDone)}
	switch {
	case t.sync:
		t.store.disk.SyncWrite(id)
		t.pageDone = append(t.pageDone, t.store.clock.Now())
	case t.store.grant != nil && t.store.grant.reservePage(t, t.store.pageBytes):
		// Resident page: the disk write is deferred until the ledger
		// spills it. The page is readable right away — no transfer stands
		// between producing the tuples and consuming them.
		t.resBytes += t.store.pageBytes
		t.pageDone = append(t.pageDone, t.store.clock.Now())
		t.resident = append(t.resident, true)
		t.inPage = 0
		return
	default:
		t.pageDone = append(t.pageDone, t.store.disk.AsyncWrite(id))
	}
	t.resident = append(t.resident, false)
	t.inPage = 0
}

// spillOldestPage evicts the temp's oldest resident page: the deferred disk
// write is charged now (the page becomes durable at the async transfer's
// completion) and one page of grant is returned to the ledger by the
// caller. Returns the bytes released, 0 when nothing is resident.
func (t *Temp) spillOldestPage() int64 {
	for k := t.resScan; k < len(t.resident); k++ {
		if !t.resident[k] {
			continue
		}
		t.resident[k] = false
		t.resScan = k + 1
		t.pageDone[k] = t.store.disk.AsyncWrite(sim.PageID{Object: t.object, Page: k})
		pb := t.store.pageBytes
		t.resBytes -= pb
		return pb
	}
	t.resScan = len(t.resident)
	return 0
}

// consumedTo releases resident pages the reader has fully consumed: their
// tuples will never be read again, so neither the deferred disk write nor
// the grant charge is needed. pos is the reader's next-tuple index; at the
// end of the (closed) temp that includes the trailing partial page.
func (t *Temp) consumedTo(pos int) {
	done := pos / t.store.perPage
	if pos >= t.nrows {
		done = len(t.resident)
	}
	for k := t.consumedPages; k < done && k < len(t.resident); k++ {
		if t.resident[k] {
			t.resident[k] = false
			pb := t.store.pageBytes
			t.resBytes -= pb
			t.store.grant.releaseResident(pb)
		}
	}
	if done > t.consumedPages {
		t.consumedPages = done
	}
}

// releaseAllResident returns every resident page's grant without charging
// disk writes — used when the temp (or the whole store) is discarded.
func (t *Temp) releaseAllResident() {
	if t.resBytes == 0 {
		return
	}
	for k := range t.resident {
		if t.resident[k] {
			t.resident[k] = false
			t.store.grant.releaseResident(t.store.pageBytes)
		}
	}
	t.resBytes = 0
}

// ResidentPages returns how many pages are currently memory-resident.
func (t *Temp) ResidentPages() int {
	n := 0
	for _, r := range t.resident {
		if r {
			n++
		}
	}
	return n
}

// Close flushes the final partial page. Further appends panic.
func (t *Temp) Close() {
	if t.closed {
		return
	}
	if t.inPage > 0 {
		t.flushPage()
	}
	t.closed = true
}

// Closed reports whether the writer has finished.
func (t *Temp) Closed() bool { return t.closed }

// Drop releases the temp relation's disk bookkeeping and any resident-page
// grant.
func (t *Temp) Drop() {
	t.releaseAllResident()
	t.store.disk.Forget(t.object)
}

// DurableAt returns the time the last written page completed, i.e. when
// the whole temp relation is readable. Zero for an empty relation.
func (t *Temp) DurableAt() time.Duration {
	if len(t.pageDone) == 0 {
		return 0
	}
	return t.pageDone[len(t.pageDone)-1]
}

// NewReader opens a sequential, prefetching reader over a closed temp
// relation, using asynchronous reads: tuples "arrive" when their page's
// read completes. prefetch is the number of pages kept in flight ahead of
// consumption (minimum 1).
func (t *Temp) NewReader(prefetch int) *Reader {
	if !t.closed {
		panic(fmt.Sprintf("mem: reader over unclosed temp %q", t.name))
	}
	if prefetch < 1 {
		prefetch = 1
	}
	r := &t.rd
	if r.temp != nil {
		r = new(Reader) // a second reader over the temp
	}
	readyAt := slices.Grow(r.readyAt[:0], len(t.pageDone))[:len(t.pageDone)]
	clear(readyAt)
	*r = Reader{temp: t, prefetch: prefetch, readyAt: readyAt}
	return r
}

// NewSyncReader opens a reader whose page reads hold the CPU (classic
// iterator-engine behaviour): every tuple is nominally always "available",
// and the synchronous wait is paid when consumption crosses into an unread
// page.
func (t *Temp) NewSyncReader() *Reader {
	r := t.NewReader(1)
	r.sync = true
	return r
}

// Reader streams a temp relation back with asynchronous reads, exposing the
// same availability protocol as a wrapper queue: tuples "arrive" when their
// page's read completes. This makes complement fragments schedulable by the
// DQP exactly like pipeline chains.
type Reader struct {
	temp     *Temp
	prefetch int
	sync     bool
	pos      int             // next tuple index
	issued   int             // pages whose reads have been issued
	readyAt  []time.Duration // read-completion time per issued page

	shim     *relation.Batch // PopN's staging
	shimRows []int64         // PopN's row storage
}

// Width returns the number of values per row the temp stores, the width of
// the batch Pop fills.
func (r *Reader) Width() int { return r.temp.width }

func (r *Reader) tuplesPerPage() int { return r.temp.store.perPage }

func (r *Reader) pageOf(i int) int { return i / r.temp.store.perPage }

// ensureIssued issues page reads up to the prefetch window beyond the
// current position. Reads start no earlier than the page's write
// completion. Issuing charges the per-I/O CPU cost now.
func (r *Reader) ensureIssued() {
	want := r.pageOf(r.pos) + r.prefetch
	if want > len(r.temp.pageDone) {
		want = len(r.temp.pageDone)
	}
	for r.issued < want {
		k := r.issued
		if r.temp.resident[k] {
			// Resident page: no read I/O — the tuples never left memory, so
			// they are available the instant the page was produced.
			r.readyAt[k] = r.temp.pageDone[k]
		} else {
			r.readyAt[k] = r.temp.store.disk.AsyncRead(
				sim.PageID{Object: r.temp.object, Page: k}, r.temp.pageDone[k])
		}
		r.issued++
	}
}

// Available returns how many unread tuples are in memory at time now. In
// synchronous mode every remaining tuple counts as available: the wait is
// paid on Pop. Ready pages are counted page-at-a-time: reads are issued in
// page order on one disk timeline, so completion times are nondecreasing.
func (r *Reader) Available(now time.Duration) int {
	if r.sync {
		return r.temp.nrows - r.pos
	}
	r.ensureIssued()
	last := -1 // last ready page
	for k := r.pageOf(r.pos); k < r.issued && r.readyAt[k] <= now; k++ {
		last = k
	}
	if last < 0 {
		return 0
	}
	end := (last + 1) * r.tuplesPerPage()
	if end > r.temp.nrows {
		end = r.temp.nrows
	}
	return end - r.pos
}

// NextArrival returns the time the next unread tuple is in memory, or false
// if the relation is fully consumed.
func (r *Reader) NextArrival() (time.Duration, bool) {
	if r.pos >= r.temp.nrows {
		return 0, false
	}
	if r.sync {
		return r.temp.store.clock.Now(), true
	}
	r.ensureIssued()
	k := r.pageOf(r.pos)
	if k >= r.issued {
		// Should not happen: ensureIssued always covers the current page.
		panic(fmt.Sprintf("mem: reader of %q has unissued current page", r.temp.name))
	}
	return r.readyAt[k], true
}

// Pop moves up to max tuples into dst, which must have the temp's width, as
// one contiguous run per column, never crossing a page boundary, and
// returns how many it moved. Bounding the chunk at the page edge puts the
// I/O charges where consumption incurs them: the page read (synchronous
// wait or prefetch issue) is paid exactly when consumption first touches
// the page, which for a page-bounded chunk is the call itself.
func (r *Reader) Pop(now time.Duration, dst *relation.Batch, max int) int {
	t := r.temp
	if dst.Width() != t.width {
		panic(fmt.Sprintf("mem: pop of width-%d temp %q into a width-%d batch", t.width, t.name, dst.Width()))
	}
	if r.pos >= t.nrows || max <= 0 {
		return 0
	}
	per := r.tuplesPerPage()
	k, off := r.pageOf(r.pos), r.pos%per
	n := min(per-off, t.nrows-r.pos, max)
	if r.sync {
		if r.issued <= k {
			t.store.disk.SyncRead(sim.PageID{Object: t.object, Page: k})
			r.issued = k + 1
		}
	} else {
		r.ensureIssued()
		if r.readyAt[k] > now {
			return 0 // page still in flight: nothing available yet
		}
	}
	at := k*t.pageVals() + off
	for _, v := range dst.Extend(n) {
		copy(v, t.data[at:at+n])
		at += per
	}
	r.pos += n
	if t.resBytes > 0 {
		// Values stay in the arena (UnpopN can still rewind within the
		// page), but a fully consumed page's grant and deferred write are no
		// longer needed.
		t.consumedTo(r.pos)
	}
	return n
}

// PopN is Pop into rows, which stay valid until the next call; after its
// first call it allocates nothing. It stays only because bench/ calls it —
// remove with the next [benchmark] PR.
func (r *Reader) PopN(now time.Duration, dst []relation.Tuple) int {
	w := r.Width()
	if r.shim == nil {
		r.shim = relation.NewBatch(w)
	}
	r.shim.Reset(w)
	n := r.Pop(now, r.shim, len(dst))
	r.shimRows = slices.Grow(r.shimRows[:0], n*w)[:n*w]
	for i := range n {
		dst[i] = r.shim.Row(i, r.shimRows[i*w:(i+1)*w:(i+1)*w])
	}
	return n
}

// UnpopN rewinds the reader by n tuples, undoing the tail of a Pop batch
// the consumer could not process. The rewind stays within the chunk's page,
// whose read was already issued or paid, so no I/O is re-charged when the
// tuples are consumed again.
func (r *Reader) UnpopN(n int) {
	if n > r.pos {
		panic(fmt.Sprintf("mem: unpop %d past start of temp %q", n, r.temp.name))
	}
	r.pos -= n
}

// Exhausted reports whether every tuple has been consumed.
func (r *Reader) Exhausted() bool { return r.pos >= r.temp.nrows }

// Remaining returns the number of unconsumed tuples.
func (r *Reader) Remaining() int { return r.temp.nrows - r.pos }
