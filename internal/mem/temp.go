package mem

import (
	"fmt"
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
	temps   []*Temp

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

// IntRecycler supplies and reclaims flat []int64 arenas, so temp-relation
// storage is recycled across simulator runs. GetTempInts returns a pooled
// arena of at least the given capacity or nil (start from scratch), so a
// large materialization hint finds the pool's grown arena, not the
// last-returned (possibly tiny) one. PutTempInts receives length-zero
// slices whose capacity is the reusable storage.
type IntRecycler interface {
	GetTempInts(capacity int) []int64
	PutTempInts([]int64)
}

// NewTempStore binds a store to the mediator's disk and clock.
func NewTempStore(params sim.Params, disk *sim.Disk, clock *sim.Clock) *TempStore {
	perPage := params.TuplesPerPage()
	return &TempStore{params: params, disk: disk, clock: clock, nextObj: 1,
		perPage: perPage, pageBytes: int64(perPage) * int64(params.TupleSize)}
}

// SetPool attaches an arena recycler; subsequent Creates draw their tuple
// storage from it and Reclaim returns the storage of every temp created so
// far.
func (s *TempStore) SetPool(p IntRecycler) { s.pool = p }

// SetGovernor attaches the grant's ledger: asynchronous temps then keep
// freshly written pages resident under the grant (spilled on demand, oldest
// first) instead of writing every page to disk eagerly; synchronous temps —
// the classic-iterator materialize-all path — are unaffected. The bool is
// ignored. It stays only because bench/ passes it — remove with the next
// [benchmark] PR.
func (s *TempStore) SetGovernor(m *Manager, _ bool) { s.grant = m }

// Reclaim hands every created temp's tuple arena back to the pool. The
// store and its temps must not be used afterwards: callers reclaim only
// when the whole simulated run is over.
func (s *TempStore) Reclaim() {
	for _, t := range s.temps {
		t.releaseAllResident()
		if s.pool != nil && t.data != nil {
			s.pool.PutTempInts(t.data[:0])
			t.data = nil
		}
	}
	s.temps = nil
}

// Create opens a new temporary relation with the given schema, written with
// asynchronous I/O (the §4.4 cost assumption for materialization
// fragments).
func (s *TempStore) Create(name string, schema *relation.Schema) *Temp {
	return s.CreateSized(name, schema, 0)
}

// CreateSync opens a temporary relation whose page writes hold the CPU
// until the transfer completes — the behaviour of a strategy built on the
// classic synchronous iterator engine, like materialize-all.
func (s *TempStore) CreateSync(name string, schema *relation.Schema) *Temp {
	return s.CreateSyncSized(name, schema, 0)
}

// CreateSized is Create with a row-count hint: the tuple arena is sized for
// about rows tuples up front — the smallest pooled arena that holds them, so
// repeated sized materializations reach steady state with no arena
// allocation — and a materialization that stays within the hint never
// re-copies its arena. The hint only steers allocation — page bookkeeping,
// I/O charges and contents are identical with any hint.
func (s *TempStore) CreateSized(name string, schema *relation.Schema, rows int) *Temp {
	obj := s.nextObj
	s.nextObj++
	t := &Temp{
		store:  s,
		name:   name,
		object: obj,
		width:  schema.Width(),
	}
	need := max(rows, 0) * t.width
	if s.pool != nil {
		t.data = s.pool.GetTempInts(need)
	}
	if t.data == nil && need > 0 {
		t.data = make([]int64, 0, need)
	}
	s.temps = append(s.temps, t)
	return t
}

// CreateSyncSized is CreateSync with a row-count hint.
func (s *TempStore) CreateSyncSized(name string, schema *relation.Schema, rows int) *Temp {
	t := s.CreateSized(name, schema, rows)
	t.sync = true
	return t
}

// Temp is one temporary relation: tuples plus the virtual times at which
// each page became durable on disk. Tuple values live in one flat []int64
// arena (the schema fixes the width), so materializing n tuples costs a few
// geometric arena growths instead of one allocation per tuple.
type Temp struct {
	store  *TempStore
	name   string
	object int

	sync      bool
	width     int     // values per tuple, from the schema
	data      []int64 // flat tuple arena: row i at [i*width, (i+1)*width)
	nrows     int
	pageDone  []time.Duration // write-completion time per full page
	inPage    int             // tuples buffered in the current page
	closed    bool
	closedLen int

	// Residency state. resident is aligned with pageDone: true means the
	// page's disk write is deferred — it is available at its (in-memory)
	// completion time and holds one page of grant until the ledger spills
	// it or its reader fully consumes it.
	resident      []bool
	resBytes      int64 // grant bytes currently held by resident pages
	consumedPages int   // pages fully consumed by the reader (release watermark)
	resScan       int   // lowest index that can still be resident (spill cursor)
	inSpillList   bool  // listed in the ledger's spill-candidate set
}

// Len returns the number of appended tuples.
func (t *Temp) Len() int { return t.nrows }

// row returns tuple i as a slice into the arena. The arena is append-only,
// so returned tuples stay valid (and stable) for the life of the temp.
func (t *Temp) row(i int) relation.Tuple {
	off := i * t.width
	return relation.Tuple(t.data[off : off+t.width : off+t.width])
}

// Pages returns the number of pages written so far.
func (t *Temp) Pages() int { return len(t.pageDone) }

// Append adds one tuple, copying its values into the temp's arena; the
// caller's backing array may be reused afterwards. When a page fills up, its
// write is issued asynchronously: the caller's CPU is charged the I/O-issue
// cost, the disk timeline absorbs the transfer, and the completion time is
// recorded so readers never see a page before it is durable.
func (t *Temp) Append(tup relation.Tuple) {
	if t.closed {
		panic(fmt.Sprintf("mem: append to closed temp %q", t.name))
	}
	if len(tup) != t.width {
		panic(fmt.Sprintf("mem: width-%d tuple appended to temp %q of width %d", len(tup), t.name, t.width))
	}
	t.data = append(t.data, tup...)
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
	t.closedLen = t.nrows
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
	return &Reader{
		temp:     t,
		prefetch: prefetch,
		readyAt:  make([]time.Duration, len(t.pageDone)),
		issued:   0,
	}
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
}

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
// paid on PopN. Ready pages are counted page-at-a-time: reads are issued in
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

// PopN bulk-consumes up to len(dst) tuples into dst, never crossing a page
// boundary, and returns how many it moved. Bounding the chunk at the page
// edge puts the I/O charges where consumption incurs them: the page read
// (synchronous wait or prefetch issue) is paid exactly when consumption
// first touches the page, which for a page-bounded chunk is the call itself.
func (r *Reader) PopN(now time.Duration, dst []relation.Tuple) int {
	if r.pos >= r.temp.nrows || len(dst) == 0 {
		return 0
	}
	k := r.pageOf(r.pos)
	end := (k + 1) * r.tuplesPerPage()
	if end > r.temp.nrows {
		end = r.temp.nrows
	}
	n := end - r.pos
	if n > len(dst) {
		n = len(dst)
	}
	if r.sync {
		if r.issued <= k {
			r.temp.store.disk.SyncRead(sim.PageID{Object: r.temp.object, Page: k})
			r.issued = k + 1
		}
	} else {
		r.ensureIssued()
		if r.readyAt[k] > now {
			return 0 // page still in flight: nothing available yet
		}
	}
	for i := 0; i < n; i++ {
		dst[i] = r.temp.row(r.pos + i)
	}
	r.pos += n
	if r.temp.resBytes > 0 {
		// Tuples stay valid in the arena (UnpopN can still rewind within the
		// page), but a fully consumed page's grant and deferred write are no
		// longer needed.
		r.temp.consumedTo(r.pos)
	}
	return n
}

// UnpopN rewinds the reader by n tuples, undoing the tail of a PopN batch
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
