package exec

import (
	"testing"

	"dqs/internal/relation"
	"dqs/internal/workload"
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
	// Stranded tuples are deep copies: they come from the mediator's cascade
	// arena, which the next batch of any fragment overwrites, so mutating
	// the originals afterwards must not reach the pending buffer.
	strand()
	outs[0][0] = 999
	if f.pending[0][0] != 0 {
		t.Errorf("pending[0] aliases the stranded output: %v", f.pending[0])
	}
}

// raceDetector is set when the tests run under the race detector.
var raceDetector bool

// TestColumnarSteadyStateRunAllocations pins the pool-recycle contract of
// the columnar path: once the scratch a mediator draws is warm, repeat
// columnar runs reuse its queues, hash tables and staging, and its cascade's
// chunk, headers and arena as grown, so a steady-state run allocates a small
// fraction of a cold one, and what it does allocate is per query, not per
// tuple or per page: a warm run allocates as often at full scale as on
// Fig5Small, for SEQ and for MA (whose temps grow with the data).
func TestColumnarSteadyStateRunAllocations(t *testing.T) {
	w := smallFig5(t)
	run := func(cold bool) func() {
		return func() { runPooled(t, w, cold, runSEQ) }
	}
	cold := testing.AllocsPerRun(3, run(true))
	// Each pooled run gets the scratch the run before it reclaimed.
	warm := testing.AllocsPerRun(3, run(false))
	// A run carries irreducible per-run setup (sources, fragments, trace);
	// the pooled share — queues, tables, staging, the cascade — must be
	// gone. Cold runs measure ~330 allocations here, warm ~160.
	if warm > 3*cold/4 {
		t.Errorf("warm columnar run allocates %v times, cold run %v: pool recycle is not engaging", warm, cold)
	}

	if raceDetector {
		t.Log("the race detector's own allocations blur exact counts: scale bound not checked")
		return
	}
	full, err := workload.Fig5(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range []struct {
		name string
		run  func(*Runtime) (Result, error)
	}{{"SEQ", runSEQ}, {"MA", runMA}} {
		warmAt := func(w *workload.Workload) float64 {
			run := func() { runPooled(t, w, false, st.run) }
			run() // the first run at a new scale regrows what the last one outgrew
			return testing.AllocsPerRun(3, run)
		}
		if small, large := warmAt(w), warmAt(full); small != large {
			t.Errorf("warm %s run allocates %v times on Fig5Small but %v on Fig5: allocation grows with the data",
				st.name, small, large)
		}
	}
}
