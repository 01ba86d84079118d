package comm

import (
	"fmt"
	"testing"
	"time"

	"dqs/internal/relation"
)

// The ring benchmarks pin the hot paths of this package: branch-based
// wraparound instead of % (the capacity is config-driven and not a power of
// two, so the compiler cannot strength-reduce the modulo), the
// O(1)-amortized arrived-count cache behind Available, and the CM's
// Observe, which visits only the queues its due index names.

// benchRing is a two-column queue with one run of n slots staged for
// PushColsN and the buffers to pop them back.
type benchRing struct {
	q        *Queue
	vals     [][]int64
	pass     []bool
	arrivals []time.Duration
	batch    *relation.Batch
	popPass  []bool
	at       time.Duration
}

func newBenchRing(capacity, n int) *benchRing {
	r := &benchRing{
		q:        NewQueue("w", capacity),
		vals:     [][]int64{make([]int64, n), make([]int64, n)},
		pass:     make([]bool, n),
		arrivals: make([]time.Duration, n),
		batch:    relation.NewBatch(2),
		popPass:  make([]bool, n),
	}
	r.q.SetColumnar(2)
	for i := range r.pass {
		r.vals[0][i], r.vals[1][i] = int64(i), int64(i)
		r.pass[i] = i%3 != 0
	}
	return r
}

// push appends the staged run, one microsecond between arrivals.
func (r *benchRing) push() {
	for j := range r.arrivals {
		r.at += time.Microsecond
		r.arrivals[j] = r.at
	}
	r.q.PushColsN(r.vals, r.pass, r.arrivals)
}

// pop bulk-pops the run back and credits every slot.
func (r *benchRing) pop(b *testing.B) {
	r.batch.Reset(2)
	n := r.q.PopColsN(r.at, r.batch, r.popPass)
	if n != len(r.popPass) {
		b.Fatal("short pop")
	}
	for j := 0; j < n; j++ {
		r.q.Credit(r.at)
	}
}

// BenchmarkQueueAvailable queries a deep queue the way the engine does:
// repeatedly, with a slowly advancing clock. The arrived-count cache makes
// each call O(1) amortized instead of a rescan of the arrived prefix.
func BenchmarkQueueAvailable(b *testing.B) {
	const depth = 384
	r := newBenchRing(depth, depth)
	r.push()
	now := r.at
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += time.Nanosecond
		if r.q.Available(now) != depth {
			b.Fatal("wrong availability")
		}
	}
}

// BenchmarkManagerObserve times the CM's per-iteration Observe over the
// queues of one Figure 5 query (6) and of four fused ones (24), with no
// queue due and with one due at every call. Each queue buffers a window of
// arrivals staggered across the queues, one per microsecond, so with the
// clock advancing a microsecond per call exactly one queue has one arrival
// to feed and judge; without the advance nothing is ever due.
func BenchmarkManagerObserve(b *testing.B) {
	for _, queues := range []int{6, 24} {
		for _, due := range []int{0, 1} {
			b.Run(fmt.Sprintf("queues=%d/due=%d", queues, due), func(b *testing.B) {
				benchObserve(b, queues, due == 1)
			})
		}
	}
}

func benchObserve(b *testing.B, queues int, due bool) {
	const depth = 256
	m := NewManager()
	rings := make([]*benchRing, queues)
	for i := range rings {
		rings[i] = newBenchRing(depth, depth)
		rings[i].q.name = fmt.Sprintf("w%02d", i)
		m.Adopt(rings[i].q)
	}
	// refill gives every queue its next window: queue i's k-th arrival of
	// the run is at ((k0+k)·queues + i + 1)µs, after popping and crediting,
	// at now, whatever the last window left.
	k0 := 0
	var now time.Duration
	refill := func() {
		for i, r := range rings {
			r.popPass = r.popPass[:depth]
			r.batch.Reset(2)
			for n := r.q.PopColsN(now, r.batch, r.popPass); n > 0; n-- {
				r.q.Credit(now)
			}
			for k := range r.arrivals {
				r.arrivals[k] = time.Duration((k0+k)*queues+i+1) * time.Microsecond
			}
			r.q.PushColsN(r.vals, r.pass, r.arrivals)
		}
		k0 += depth
	}
	refill()
	m.SnapshotPlanned(time.Microsecond)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if due {
			if now += time.Microsecond; now > time.Duration(k0*queues)*time.Microsecond {
				b.StopTimer()
				refill()
				b.StartTimer()
			}
		}
		m.Observe(now)
	}
}

// BenchmarkQueueObserveDrain measures the estimator feed plus a pop-refill
// cycle of eight slots on a full default window.
func BenchmarkQueueObserveDrain(b *testing.B) {
	const depth = 96
	fill := newBenchRing(depth, depth)
	fill.push()
	r := newBenchRing(1, 8)
	r.q, r.at = fill.q, fill.at
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.q.ObserveArrivals(r.at)
		r.pop(b)
		r.push()
	}
}

// BenchmarkColumnarScan cycles a full window of 2-column batches through
// the queue — PushColsN ring copies in, PopColsN ring copies out into a
// recycled batch — the wrapper→mediator hot path.
func BenchmarkColumnarScan(b *testing.B) {
	r := newBenchRing(96, 96)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.push()
		r.pop(b)
	}
}
