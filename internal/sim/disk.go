package sim

import (
	"slices"
	"time"
)

// PageID identifies one page of one stored object (a temporary relation, a
// spilled hash partition, ...). Objects are identified by small integers
// handed out by the memory manager.
type PageID struct {
	Object int
	Page   int
}

// DiskStats aggregates the activity of the simulated disk.
type DiskStats struct {
	Reads     int64         // physical page reads
	Writes    int64         // physical page writes
	CacheHits int64         // page requests served from the I/O cache
	BusyTime  time.Duration // total time the disk arm was busy
}

// Disk models the mediator's single local disk (Table 1: one disk, 17 ms
// latency, 5 ms seek, 6 MB/s transfer, 8-page I/O cache). The disk has its
// own timeline: requests are serviced in arrival order, so concurrent
// fragments contend for the arm. Sequential access within one object avoids
// the positioning cost.
//
// Two request flavours exist. Synchronous requests (the iterator model's
// reads) hold the mediator CPU until the transfer completes. Asynchronous
// requests (materialization writes and prefetching complement-fragment
// reads, paper §4.4) only charge the per-I/O CPU cost now and return the
// virtual completion time; the caller decides if and when to wait.
type Disk struct {
	p        Params
	clock    *Clock
	nextFree time.Duration
	cache    pageCache
	lastPage map[int]int // object -> last physically accessed page
	stats    DiskStats
}

// NewDisk creates a disk bound to the given clock.
func NewDisk(p Params, clock *Clock) *Disk {
	return &Disk{
		p:        p,
		clock:    clock,
		cache:    pageCache{capacity: p.IOCachePages, pages: make([]PageID, 0, p.IOCachePages)},
		lastPage: make(map[int]int),
	}
}

// Stats returns a copy of the accumulated disk statistics.
func (d *Disk) Stats() DiskStats { return d.stats }

// FreeAt returns the time at which all currently queued transfers complete.
func (d *Disk) FreeAt() time.Duration { return d.nextFree }

// chargeIOCPU bills the fixed CPU cost of issuing an I/O.
func (d *Disk) chargeIOCPU() {
	d.clock.Work(d.p.InstrTime(d.p.IOInstr))
}

// transfer schedules one physical page access on the disk timeline, no
// earlier than earliest, and returns its completion time.
func (d *Disk) transfer(id PageID, earliest time.Duration) time.Duration {
	dur := d.p.PageTransferTime()
	if last, ok := d.lastPage[id.Object]; !ok || id.Page != last+1 {
		dur += d.p.DiskAccessTime()
	}
	d.lastPage[id.Object] = id.Page
	start := d.nextFree
	if now := d.clock.Now(); now > start {
		start = now
	}
	if earliest > start {
		start = earliest
	}
	end := start + dur
	d.nextFree = end
	d.stats.BusyTime += dur
	return end
}

// SyncRead reads one page, holding the CPU until the data is available.
func (d *Disk) SyncRead(id PageID) {
	d.chargeIOCPU()
	if d.cache.touch(id) {
		d.stats.CacheHits++
		return
	}
	end := d.transfer(id, 0)
	d.stats.Reads++
	d.cache.insert(id)
	d.clock.WaitUntil(end)
}

// AsyncRead issues a read that may start no earlier than `earliest` (for
// example, not before the page's write completed) and returns the virtual
// time at which the page is in memory. Cached pages complete immediately.
func (d *Disk) AsyncRead(id PageID, earliest time.Duration) time.Duration {
	d.chargeIOCPU()
	if d.cache.touch(id) {
		d.stats.CacheHits++
		return d.clock.Now()
	}
	end := d.transfer(id, earliest)
	d.stats.Reads++
	d.cache.insert(id)
	return end
}

// AsyncWrite issues a write and returns the virtual time at which the page
// is durable (and hence readable by a complement fragment).
func (d *Disk) AsyncWrite(id PageID) time.Duration {
	d.chargeIOCPU()
	end := d.transfer(id, 0)
	d.stats.Writes++
	d.cache.insert(id)
	return end
}

// SyncWrite writes one page, holding the CPU until the transfer completes.
func (d *Disk) SyncWrite(id PageID) {
	end := d.AsyncWrite(id)
	d.clock.WaitUntil(end)
}

// Forget drops an object's pages from the cache and sequentiality tracking,
// used when a temporary relation is deleted.
func (d *Disk) Forget(object int) {
	delete(d.lastPage, object)
	d.cache.dropObject(object)
}

// pageCache is a tiny LRU cache of page identities. It models the I/O cache
// of Table 1: hits cost no disk traffic. Its few pages are one slice in
// recency order, most recently used first, scanned linearly.
type pageCache struct {
	capacity int
	pages    []PageID
}

// touch reports whether id is cached, marking it most recently used if so.
func (c *pageCache) touch(id PageID) bool {
	i := slices.Index(c.pages, id)
	if i < 0 {
		return false
	}
	copy(c.pages[1:i+1], c.pages[:i])
	c.pages[0] = id
	return true
}

// insert adds id as most recently used, evicting the LRU page if full.
func (c *pageCache) insert(id PageID) {
	if c.capacity == 0 || c.touch(id) {
		return
	}
	if len(c.pages) < c.capacity {
		c.pages = append(c.pages, id)
	}
	copy(c.pages[1:], c.pages) // the last page falls off the end
	c.pages[0] = id
}

// dropObject evicts every cached page of the given object.
func (c *pageCache) dropObject(object int) {
	c.pages = slices.DeleteFunc(c.pages, func(id PageID) bool { return id.Object == object })
}
