package exec

import (
	"testing"

	"dqs/internal/relation"
)

// TestStrandReusesPendingArena pins the overflow-retry path at zero
// steady-state allocations: once the pending arena has grown to the overflow
// batch size, re-stranding the same volume of outputs copies into recycled
// storage instead of allocating per tuple.
func TestStrandReusesPendingArena(t *testing.T) {
	f := &Fragment{}
	outs := make([]relation.Tuple, 32)
	for i := range outs {
		outs[i] = relation.Tuple{int64(i), int64(-i), int64(i * 3), 7}
	}
	strand := func() {
		f.pending = f.pending[:0] // drained by the retry loop
		f.strand(outs)
	}
	strand() // warm arena and pending capacity
	if got := testing.AllocsPerRun(50, strand); got != 0 {
		t.Errorf("steady-state strand of %d tuples allocates %v times per run, want 0", len(outs), got)
	}
	// Stranded tuples are deep copies: mutating the originals afterwards must
	// not reach the pending buffer.
	strand()
	outs[0][0] = 999
	if f.pending[0][0] != 0 {
		t.Errorf("pending[0] aliases the stranded output: %v", f.pending[0])
	}
}

// TestColumnarSteadyStateRunAllocations pins the pool-recycle contract of
// the columnar path: once the Scratch a mediator draws is warm, repeat
// columnar runs reuse the recycled batches, pass masks, queues, hash tables
// and arenas, so a steady-state run allocates a small fraction of a cold
// one.
func TestColumnarSteadyStateRunAllocations(t *testing.T) {
	w := smallFig5(t)
	run := func(cold bool) func() {
		return func() { runPooled(t, w, cold, runSEQ) }
	}
	cold := testing.AllocsPerRun(3, run(true))
	// Each pooled run gets the Scratch the run before it reclaimed.
	warm := testing.AllocsPerRun(3, run(false))
	// A run carries irreducible per-run setup (sources, fragments, trace);
	// the pooled share — queues, tables, arenas, batches, masks — must be
	// gone. Cold runs measure ~500 allocations here, warm ~300.
	if warm > 3*cold/4 {
		t.Errorf("warm columnar run allocates %v times, cold run %v: pool recycle is not engaging", warm, cold)
	}
}
