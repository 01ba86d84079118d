package mem

import (
	"testing"
	"time"

	"dqs/internal/relation"
	"dqs/internal/sim"
)

func TestManagerReserveReleasePeak(t *testing.T) {
	m, err := NewManager(100)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Reserve(60) {
		t.Fatal("reserve 60/100 failed")
	}
	if m.Reserve(50) {
		t.Fatal("over-reserve succeeded")
	}
	if m.Used() != 60 || m.Available() != 40 {
		t.Errorf("used/avail = %d/%d", m.Used(), m.Available())
	}
	if !m.Reserve(40) {
		t.Fatal("exact-fit reserve failed")
	}
	m.Release(30)
	if m.Used() != 70 || m.Peak() != 100 {
		t.Errorf("after release: used=%d peak=%d", m.Used(), m.Peak())
	}
	if m.Total() != 100 {
		t.Errorf("total = %d", m.Total())
	}
}

func TestManagerValidation(t *testing.T) {
	if _, err := NewManager(0); err == nil {
		t.Error("zero grant accepted")
	}
	if _, err := NewManager(-5); err == nil {
		t.Error("negative grant accepted")
	}
	m, _ := NewManager(10)
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("negative reserve", func() { m.Reserve(-1) })
	mustPanic("over-release", func() { m.Release(1) })
	m.Reserve(5)
	mustPanic("negative release", func() { m.Release(-1) })
}

func newStore() (*TempStore, *sim.Clock, sim.Params) {
	p := sim.DefaultParams()
	clock := sim.NewClock()
	disk := sim.NewDisk(p, clock)
	return NewTempStore(p, disk, clock), clock, p
}

// pop consumes r's next tuple, which must be in memory at now.
func pop(r *Reader, now time.Duration) relation.Tuple {
	var dst [1]relation.Tuple
	if r.PopN(now, dst[:]) != 1 {
		panic("pop: next tuple not in memory")
	}
	return dst[0]
}

func TestTempWriteReadRoundTrip(t *testing.T) {
	store, _, p := newStore()
	schema := relation.NewSchema("x", "id")
	temp := store.Create("t", schema)
	const n = 1000
	for i := 0; i < n; i++ {
		temp.Append(relation.Tuple{int64(i)})
	}
	temp.Close()
	if temp.Len() != n {
		t.Fatalf("Len = %d", temp.Len())
	}
	wantPages := (n + p.TuplesPerPage() - 1) / p.TuplesPerPage()
	if temp.Pages() != wantPages {
		t.Fatalf("Pages = %d, want %d", temp.Pages(), wantPages)
	}
	r := temp.NewReader(2)
	var now time.Duration = 1 << 62
	for i := 0; i < n; i++ {
		if r.Exhausted() {
			t.Fatalf("exhausted at %d", i)
		}
		got := pop(r, now)
		if got[0] != int64(i) {
			t.Fatalf("tuple %d = %v", i, got)
		}
	}
	if !r.Exhausted() || r.Remaining() != 0 {
		t.Error("reader not exhausted after full drain")
	}
}

func TestTempReaderAvailabilityFollowsDisk(t *testing.T) {
	store, clock, p := newStore()
	temp := store.Create("t", relation.NewSchema("x", "id"))
	// Write more pages than the I/O cache holds, so the first page is
	// evicted and must be re-read from disk.
	n := p.TuplesPerPage() * (p.IOCachePages + 4)
	for i := 0; i < n; i++ {
		temp.Append(relation.Tuple{int64(i)})
	}
	temp.Close()
	r := temp.NewReader(1)
	// At the current instant the first page's physical read has not
	// completed.
	if got := r.Available(clock.Now()); got != 0 {
		t.Errorf("Available immediately = %d, want 0", got)
	}
	at, ok := r.NextArrival()
	if !ok || at <= clock.Now() {
		t.Errorf("NextArrival = %v,%v, want future", at, ok)
	}
	if got := r.Available(at); got == 0 {
		t.Error("nothing available at the announced arrival time")
	}
}

func TestTempReaderCachedPagesAreInstant(t *testing.T) {
	// A small temp whose pages all fit the I/O cache is readable without
	// waiting for write durability: write-behind caching.
	store, clock, _ := newStore()
	temp := store.Create("t", relation.NewSchema("x", "id"))
	for i := 0; i < 100; i++ {
		temp.Append(relation.Tuple{int64(i)})
	}
	temp.Close()
	r := temp.NewReader(1)
	// The first call issues the (cache-hit) read, charging the per-I/O CPU
	// cost; afterwards everything is immediately available.
	r.Available(clock.Now())
	if got := r.Available(clock.Now()); got != 100 {
		t.Errorf("cached temp Available = %d, want 100", got)
	}
}

func TestTempReaderPopFutureReturnsNothing(t *testing.T) {
	store, clock, _ := newStore()
	temp := store.Create("t", relation.NewSchema("x", "id"))
	temp.Append(relation.Tuple{1})
	temp.Close()
	r := temp.NewReader(1)
	if n := r.PopN(clock.Now(), make([]relation.Tuple, 1)); n != 0 || r.Remaining() != 1 {
		t.Errorf("pop of a page still in flight moved %d tuples, %d remaining", n, r.Remaining())
	}
}

func TestTempSyncReaderHoldsCPU(t *testing.T) {
	store, clock, _ := newStore()
	temp := store.CreateSync("t", relation.NewSchema("x", "id"))
	for i := 0; i < 300; i++ {
		temp.Append(relation.Tuple{int64(i)})
	}
	temp.Close()
	writeDone := clock.Now()
	if writeDone == 0 {
		t.Fatal("sync writes did not advance the clock")
	}
	if clock.Idle() != 0 {
		t.Errorf("sync writes accounted idle time")
	}
	r := temp.NewSyncReader()
	if got := r.Available(clock.Now()); got != 300 {
		t.Errorf("sync reader Available = %d, want all 300", got)
	}
	before := clock.Now()
	pop(r, before)
	if clock.Now() <= before {
		t.Error("sync pop on page boundary did not pay the read")
	}
	mid := clock.Now()
	pop(r, mid)
	if clock.Now() != mid {
		t.Error("second pop within a page paid extra time")
	}
}

func TestTempMisusePanics(t *testing.T) {
	store, _, _ := newStore()
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("append after close", func() {
		temp := store.Create("t", relation.NewSchema("x", "id"))
		temp.Close()
		temp.Append(relation.Tuple{1})
	})
	mustPanic("reader before close", func() {
		temp := store.Create("t2", relation.NewSchema("x", "id"))
		temp.Append(relation.Tuple{1})
		temp.NewReader(1)
	})
}

func TestTempDoubleCloseAndEmpty(t *testing.T) {
	store, _, _ := newStore()
	temp := store.Create("t", relation.NewSchema("x", "id"))
	temp.Close()
	temp.Close() // idempotent
	if temp.Len() != 0 || temp.Pages() != 0 || temp.DurableAt() != 0 {
		t.Errorf("empty temp state wrong: %d/%d/%v", temp.Len(), temp.Pages(), temp.DurableAt())
	}
	r := temp.NewReader(1)
	if !r.Exhausted() {
		t.Error("empty reader not exhausted")
	}
	if _, ok := r.NextArrival(); ok {
		t.Error("empty reader announced an arrival")
	}
}

func TestTempEvictedReadNeverBeforeWriteDurable(t *testing.T) {
	store, clock, p := newStore()
	temp := store.Create("t", relation.NewSchema("x", "id"))
	perPage := p.TuplesPerPage()
	pages := p.IOCachePages + 4 // first pages get evicted
	for i := 0; i < perPage*pages; i++ {
		temp.Append(relation.Tuple{int64(i)})
	}
	temp.Close()
	if temp.DurableAt() <= clock.Now() {
		t.Fatalf("async writes complete at %v, not in the future of %v", temp.DurableAt(), clock.Now())
	}
	// Page 0 is evicted from the cache, so its physical read may not start
	// before its write completed (it would read garbage otherwise).
	r := temp.NewReader(1)
	at, ok := r.NextArrival()
	if !ok {
		t.Fatal("arrival missing")
	}
	// pageDone[0] is private; bound it from below by the transfer time of
	// one page after the issue instant (time zero).
	if at < p.PageTransferTime()*2 {
		t.Errorf("evicted page readable at %v, faster than write+read transfers", at)
	}
}
