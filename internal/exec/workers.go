package exec

import (
	"context"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
)

// parallelMinBatch gates intra-run parallelism by batch size: a popped
// input run smaller than this stays on the serial path, because fanning a
// few tuples out to goroutines costs more than their cascades. The gate
// affects wall-clock only — the parallel path merges in input order and is
// bit-identical to the serial one at any threshold.
const parallelMinBatch = 64

// minChunkTuples bounds how finely a parallel batch is chunked: each chunk
// should carry enough cascade work to amortize its goroutine.
const minChunkTuples = 32

// workerPool fans intra-run kernel work — partition builds, probe-cascade
// precomputation — out to a bounded set of goroutines: the caller plus up to
// Width()-1 helpers. Helpers belong to one execution phase. The first
// parallel batch after beginPhase starts them, later batches of the phase
// only wake them (a channel send each, no goroutine or label context per
// batch), and endPhase stops them and waits for their exit, so a run never
// leaves a goroutine behind no matter how its phase ends, and a parked helper
// never outlives the phase to pin the run's tables. Outside a phase — tests
// and replays driving fragments directly — Run stops its helpers before it
// returns. Helpers are pprof-labeled (dqs_worker=i, set once at start) so CPU
// profiles attribute parallel kernel time per worker; the caller's share
// carries the caller's labels.
//
// Everything a task touches must be private to the task or read-only for
// the duration of Run; the clock, memory accounting and queues are NOT —
// tasks must never touch them. Determinism therefore never depends on
// worker count: tasks only fill task-indexed result slots that a serial
// merge consumes afterwards.
//
// A pool serves one Run at a time, from the goroutine that owns the run.
type workerPool struct {
	n       int
	inPhase bool

	// The current Run's job: helpers and the caller claim task indices from
	// next until tasks is reached. Written by Run before it wakes a helper,
	// cleared when Run returns so a parked helper holds no task closure.
	fn    func(task int)
	tasks int64
	next  atomic.Int64
	busy  sync.WaitGroup // helpers woken for the current Run

	// wake carries one token per helper asked to join the current Run;
	// closing it stops the helpers. Buffered to the helper count so Run
	// never blocks on a helper that is still on its way back to the receive.
	wake    chan struct{}
	helpers int            // started since the last stop
	exited  sync.WaitGroup // started helpers, for stop to wait on
}

// newWorkerPool returns a pool of the given width, or nil when width <= 1
// (the serial configuration, where call sites skip the parallel path
// entirely).
func newWorkerPool(n int) *workerPool {
	if n <= 1 {
		return nil
	}
	return &workerPool{n: n}
}

// Width returns the worker bound.
func (p *workerPool) Width() int { return p.n }

// beginPhase opens an execution phase: helpers started from here on stay
// parked between batches until endPhase. Nil-receiver safe.
func (p *workerPool) beginPhase() {
	if p != nil {
		p.inPhase = true
	}
}

// endPhase closes the phase, stopping its helpers. Nil-receiver safe.
func (p *workerPool) endPhase() {
	if p != nil {
		p.inPhase = false
		p.stop()
	}
}

// stop ends every helper and returns once they have exited.
func (p *workerPool) stop() {
	if p.helpers == 0 {
		return
	}
	close(p.wake)
	p.exited.Wait()
	p.wake, p.helpers = nil, 0
}

// Run executes fn(0..tasks-1) across the caller and at most Width()-1
// helpers and returns when every task finished; with tasks <= 1 nothing is
// woken and the single task runs inline.
func (p *workerPool) Run(tasks int, fn func(task int)) {
	if tasks <= 0 {
		return
	}
	if tasks == 1 {
		fn(0)
		return
	}
	want := p.n - 1
	if want > tasks-1 {
		want = tasks - 1
	}
	if p.wake == nil {
		p.wake = make(chan struct{}, p.n-1)
	}
	for p.helpers < want {
		p.exited.Add(1)
		go p.helper(p.helpers, p.wake)
		p.helpers++
	}
	p.fn, p.tasks = fn, int64(tasks)
	p.next.Store(0)
	p.busy.Add(want)
	for i := 0; i < want; i++ {
		p.wake <- struct{}{}
	}
	p.claim()
	p.busy.Wait()
	p.fn = nil
	if !p.inPhase {
		p.stop()
	}
}

// claim runs unclaimed tasks of the current job until none is left.
func (p *workerPool) claim() {
	for {
		i := p.next.Add(1) - 1
		if i >= p.tasks {
			return
		}
		p.fn(int(i))
	}
}

// helper is one parked worker: it joins a Run per wake token and exits when
// the channel closes.
func (p *workerPool) helper(id int, wake <-chan struct{}) {
	defer p.exited.Done()
	pprof.SetGoroutineLabels(pprof.WithLabels(context.Background(), pprof.Labels("dqs_worker", strconv.Itoa(id))))
	for range wake {
		p.claim()
		p.busy.Done()
	}
}

// chunkCount returns how many contiguous chunks a parallel batch of n
// tuples splits into: at most one per worker, and never so many that a
// chunk drops below minChunkTuples.
func chunkCount(n, workers int) int {
	c := n / minChunkTuples
	if c > workers {
		c = workers
	}
	if c < 1 {
		c = 1
	}
	return c
}

// chunkBounds returns the half-open tuple range of chunk c of n tuples
// split into chunks contiguous chunks.
func chunkBounds(c, chunks, n int) (lo, hi int) {
	lo = c * n / chunks
	hi = (c + 1) * n / chunks
	return lo, hi
}
