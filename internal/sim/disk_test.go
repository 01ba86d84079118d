package sim

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

func newTestDisk() (*Disk, *Clock, Params) {
	p := DefaultParams()
	c := NewClock()
	return NewDisk(p, c), c, p
}

func TestDiskSequentialWritesPayPositioningOnce(t *testing.T) {
	d, _, p := newTestDisk()
	first := d.AsyncWrite(PageID{Object: 1, Page: 0})
	second := d.AsyncWrite(PageID{Object: 1, Page: 1})
	// Issuing charges the per-I/O CPU cost first, so the transfer starts at
	// clock.Now() after that charge.
	wantFirst := p.InstrTime(p.IOInstr) + p.DiskAccessTime() + p.PageTransferTime()
	if first != wantFirst {
		t.Errorf("first write completes at %v, want %v", first, wantFirst)
	}
	if got := second - first; got != p.PageTransferTime() {
		t.Errorf("sequential follow-up cost %v, want transfer-only %v", got, p.PageTransferTime())
	}
}

func TestDiskRandomAccessPaysPositioning(t *testing.T) {
	d, _, p := newTestDisk()
	d.AsyncWrite(PageID{Object: 1, Page: 0})
	before := d.FreeAt()
	after := d.AsyncWrite(PageID{Object: 1, Page: 7}) // skip ahead: random
	if got := after - before; got != p.DiskAccessTime()+p.PageTransferTime() {
		t.Errorf("random access cost %v, want %v", got, p.DiskAccessTime()+p.PageTransferTime())
	}
}

func TestDiskPerObjectSequentialityTracksIndependently(t *testing.T) {
	d, _, p := newTestDisk()
	d.AsyncWrite(PageID{Object: 1, Page: 0})
	d.AsyncWrite(PageID{Object: 2, Page: 0})
	before := d.FreeAt()
	// Object 1 continues sequentially even though object 2 interleaved.
	after := d.AsyncWrite(PageID{Object: 1, Page: 1})
	if got := after - before; got != p.PageTransferTime() {
		t.Errorf("interleaved sequential stream paid %v, want transfer-only %v", got, p.PageTransferTime())
	}
}

func TestDiskSyncReadHoldsCPU(t *testing.T) {
	d, clock, p := newTestDisk()
	d.SyncRead(PageID{Object: 3, Page: 0})
	want := p.InstrTime(p.IOInstr) + p.DiskAccessTime() + p.PageTransferTime()
	if clock.Now() != want {
		t.Errorf("sync read advanced clock to %v, want %v", clock.Now(), want)
	}
	if clock.Idle() != 0 {
		t.Errorf("sync read accounted idle time %v", clock.Idle())
	}
}

func TestDiskCacheHitsAreFree(t *testing.T) {
	d, clock, p := newTestDisk()
	id := PageID{Object: 1, Page: 0}
	d.SyncRead(id)
	before := clock.Now()
	d.SyncRead(id) // cached
	if got := clock.Now() - before; got != p.InstrTime(p.IOInstr) {
		t.Errorf("cached read cost %v, want CPU-only %v", got, p.InstrTime(p.IOInstr))
	}
	if d.Stats().CacheHits != 1 {
		t.Errorf("cache hits = %d, want 1", d.Stats().CacheHits)
	}
	if d.Stats().Reads != 1 {
		t.Errorf("physical reads = %d, want 1", d.Stats().Reads)
	}
}

func TestDiskCacheEvictsLRU(t *testing.T) {
	d, _, p := newTestDisk()
	// Fill the cache beyond capacity (8 pages) with distinct pages.
	for i := 0; i < p.IOCachePages+1; i++ {
		d.SyncRead(PageID{Object: 1, Page: i})
	}
	reads := d.Stats().Reads
	// Page 0 was evicted: rereading it is a physical read.
	d.SyncRead(PageID{Object: 1, Page: 0})
	if d.Stats().Reads != reads+1 {
		t.Errorf("evicted page served from cache")
	}
	// The most recent page is still cached.
	hits := d.Stats().CacheHits
	d.SyncRead(PageID{Object: 1, Page: p.IOCachePages})
	if d.Stats().CacheHits != hits+1 {
		t.Errorf("recent page not cached")
	}
}

func TestDiskAsyncReadHonorsEarliest(t *testing.T) {
	d, _, p := newTestDisk()
	earliest := 500 * time.Millisecond
	done := d.AsyncRead(PageID{Object: 9, Page: 0}, earliest)
	if done < earliest+p.PageTransferTime() {
		t.Errorf("read completed at %v, before earliest %v + transfer", done, earliest)
	}
}

func TestDiskRequestsSerializeOnTimeline(t *testing.T) {
	d, _, _ := newTestDisk()
	a := d.AsyncWrite(PageID{Object: 1, Page: 0})
	b := d.AsyncWrite(PageID{Object: 2, Page: 0})
	if b <= a {
		t.Errorf("second request (%v) did not queue after first (%v)", b, a)
	}
}

func TestDiskForgetDropsCacheAndSequence(t *testing.T) {
	d, _, _ := newTestDisk()
	d.SyncRead(PageID{Object: 1, Page: 0})
	d.Forget(1)
	reads := d.Stats().Reads
	d.SyncRead(PageID{Object: 1, Page: 0})
	if d.Stats().Reads != reads+1 {
		t.Errorf("forgotten page still cached")
	}
}

func TestDiskZeroCacheCapacity(t *testing.T) {
	p := DefaultParams()
	p.IOCachePages = 0
	c := NewClock()
	d := NewDisk(p, c)
	d.SyncRead(PageID{Object: 1, Page: 0})
	d.SyncRead(PageID{Object: 1, Page: 0})
	if d.Stats().CacheHits != 0 {
		t.Errorf("zero-capacity cache produced hits")
	}
	if d.Stats().Reads != 2 {
		t.Errorf("reads = %d, want 2", d.Stats().Reads)
	}
}

func TestDiskBusyTimeAccumulates(t *testing.T) {
	d, _, p := newTestDisk()
	d.AsyncWrite(PageID{Object: 1, Page: 0})
	d.AsyncWrite(PageID{Object: 1, Page: 1})
	want := p.DiskAccessTime() + 2*p.PageTransferTime()
	if d.Stats().BusyTime != want {
		t.Errorf("busy time = %v, want %v", d.Stats().BusyTime, want)
	}
}

// refCache is a reference LRU kept apart from the page cache's recency
// slice: every cached page carries the tick of its last use, and a full
// cache evicts the page with the oldest tick.
type refCache struct {
	capacity int
	tick     int
	used     map[PageID]int
}

func (c *refCache) touch(id PageID) bool {
	_, ok := c.used[id]
	if ok {
		c.tick++
		c.used[id] = c.tick
	}
	return ok
}

func (c *refCache) insert(id PageID) {
	if c.capacity == 0 || c.touch(id) {
		return
	}
	if len(c.used) >= c.capacity {
		var lru PageID
		oldest := c.tick + 1
		for p, at := range c.used {
			if at < oldest {
				lru, oldest = p, at
			}
		}
		delete(c.used, lru)
	}
	c.tick++
	c.used[id] = c.tick
}

func (c *refCache) dropObject(object int) {
	for p := range c.used {
		if p.Object == object {
			delete(c.used, p)
		}
	}
}

// refDisk predicts a Disk's statistics from refCache and its own
// sequentiality tracking.
type refDisk struct {
	p        Params
	cache    refCache
	lastPage map[int]int
	stats    DiskStats
}

func (d *refDisk) transfer(id PageID) {
	dur := d.p.PageTransferTime()
	if last, ok := d.lastPage[id.Object]; !ok || id.Page != last+1 {
		dur += d.p.DiskAccessTime()
	}
	d.lastPage[id.Object] = id.Page
	d.stats.BusyTime += dur
}

// read returns whether the read is a cache hit.
func (d *refDisk) read(id PageID) bool {
	if d.cache.touch(id) {
		d.stats.CacheHits++
		return true
	}
	d.transfer(id)
	d.stats.Reads++
	d.cache.insert(id)
	return false
}

// TestDiskCacheMatchesReferenceLRU drives random SyncRead, AsyncRead,
// AsyncWrite and Forget streams over a few objects' pages at cache
// capacities 0, 1 and 8 and checks every read's hit or miss, and the
// statistics after every operation, against the reference LRU. Pages are
// drawn from more identities than the cache holds, so which page a hit
// promotes decides later evictions.
func TestDiskCacheMatchesReferenceLRU(t *testing.T) {
	for _, capacity := range []int{0, 1, 8} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("cap%d/seed%d", capacity, seed), func(t *testing.T) {
				p := DefaultParams()
				p.IOCachePages = capacity
				d := NewDisk(p, NewClock())
				ref := &refDisk{p: p, lastPage: make(map[int]int),
					cache: refCache{capacity: capacity, used: make(map[PageID]int)}}
				rng := rand.New(rand.NewSource(seed))
				for op := 0; op < 3000; op++ {
					id := PageID{Object: rng.Intn(3), Page: rng.Intn(5)}
					var what string
					switch k := rng.Intn(20); {
					case k < 8:
						what = "SyncRead"
						hits := d.Stats().CacheHits
						d.SyncRead(id)
						if got, want := d.Stats().CacheHits > hits, ref.read(id); got != want {
							t.Fatalf("op %d: SyncRead(%v) hit=%v, want %v", op, id, got, want)
						}
					case k < 15:
						what = "AsyncRead"
						hits := d.Stats().CacheHits
						d.AsyncRead(id, 0)
						if got, want := d.Stats().CacheHits > hits, ref.read(id); got != want {
							t.Fatalf("op %d: AsyncRead(%v) hit=%v, want %v", op, id, got, want)
						}
					case k < 19:
						what = "AsyncWrite"
						d.AsyncWrite(id)
						ref.transfer(id)
						ref.stats.Writes++
						ref.cache.insert(id)
					default:
						what = "Forget"
						d.Forget(id.Object)
						delete(ref.lastPage, id.Object)
						ref.cache.dropObject(id.Object)
					}
					if got := d.Stats(); got != ref.stats {
						t.Fatalf("op %d: after %s(%v) stats %+v, want %+v", op, what, id, got, ref.stats)
					}
				}
				if capacity > 0 && ref.stats.CacheHits == 0 {
					t.Fatal("the stream produced no cache hit")
				}
			})
		}
	}
}
