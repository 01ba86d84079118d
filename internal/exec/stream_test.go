package exec

import (
	"reflect"
	"testing"
	"time"

	"dqs/internal/relation"
	"dqs/internal/sim"
)

// TestResultEqualFieldCoverage mutates every field of Result in turn and
// checks Equal notices, except for the fields Equal ignores on purpose,
// where it checks that Equal does not. The field count is pinned so adding
// a field without extending Equal (and this table) fails loudly instead of
// silently comparing incompletely.
func TestResultEqualFieldCoverage(t *testing.T) {
	base := Result{
		Strategy:           "DSE",
		ResponseTime:       10 * time.Second,
		BusyTime:           4 * time.Second,
		IdleTime:           6 * time.Second,
		OutputRows:         123,
		Disk:               sim.DiskStats{Reads: 7, Writes: 9},
		PeakMemBytes:       1 << 20,
		MaterializedTuples: 50,
		Replans:            2,
		Degradations:       1,
		Timeouts:           3,
		MemRepairs:         4,
		MaxEstError:        1.5,
		FirstTupleTime:     2 * time.Second,
		TupleTimeline:      []time.Duration{2 * time.Second, 3 * time.Second},
		DegradedFragments:  []string{"CF1", "CF2"},
		PlanCacheHits:      5,
		PlanCacheMisses:    6,
	}
	if !base.Equal(base) {
		t.Fatal("Result not equal to itself")
	}
	mutations := map[string]func(*Result){
		"Strategy":           func(r *Result) { r.Strategy = "SEQ" },
		"ResponseTime":       func(r *Result) { r.ResponseTime++ },
		"BusyTime":           func(r *Result) { r.BusyTime++ },
		"IdleTime":           func(r *Result) { r.IdleTime++ },
		"OutputRows":         func(r *Result) { r.OutputRows++ },
		"Disk":               func(r *Result) { r.Disk.Reads++ },
		"PeakMemBytes":       func(r *Result) { r.PeakMemBytes++ },
		"MaterializedTuples": func(r *Result) { r.MaterializedTuples++ },
		"Replans":            func(r *Result) { r.Replans++ },
		"Degradations":       func(r *Result) { r.Degradations++ },
		"Timeouts":           func(r *Result) { r.Timeouts++ },
		"MemRepairs":         func(r *Result) { r.MemRepairs++ },
		"MaxEstError":        func(r *Result) { r.MaxEstError += 0.1 },
		"FirstTupleTime":     func(r *Result) { r.FirstTupleTime++ },
		"TupleTimeline":      func(r *Result) { r.TupleTimeline = []time.Duration{2 * time.Second} },
		"DegradedFragments":  func(r *Result) { r.DegradedFragments = []string{"CF2", "CF1"} },
		"PlanCacheHits":      func(r *Result) { r.PlanCacheHits++ },
		"PlanCacheMisses":    func(r *Result) { r.PlanCacheMisses++ },
	}
	// Work counts how the result was computed, not what it is: eager and
	// deferred production reach the same Result by different work.
	ignored := map[string]func(*Result){
		"Work": func(r *Result) { r.Work.Visits++ },
	}
	rt := reflect.TypeOf(Result{})
	if rt.NumField() != len(mutations)+len(ignored) {
		t.Fatalf("Result has %d fields but the mutation tables cover %d — extend Equal and this test", rt.NumField(), len(mutations)+len(ignored))
	}
	for i := 0; i < rt.NumField(); i++ {
		name := rt.Field(i).Name
		_, ok := mutations[name]
		_, skip := ignored[name]
		if !ok && !skip {
			t.Errorf("field %s has no mutation case", name)
		}
	}
	for name, mutate := range ignored {
		got := base
		mutate(&got)
		if !got.Equal(base) {
			t.Errorf("Equal compared %s, which it must ignore", name)
		}
	}
	for name, mutate := range mutations {
		got := base
		got.TupleTimeline = append([]time.Duration(nil), base.TupleTimeline...)
		got.DegradedFragments = append([]string(nil), base.DegradedFragments...)
		mutate(&got)
		if got.Equal(base) || base.Equal(got) {
			t.Errorf("Equal missed a difference in %s", name)
		}
	}
}

func TestResultEqualDegradedOrderingAndTimeline(t *testing.T) {
	a := Result{DegradedFragments: []string{"x", "y"}}
	b := Result{DegradedFragments: []string{"y", "x"}}
	if a.Equal(b) {
		t.Error("degraded-fragment order ignored")
	}
	c := Result{TupleTimeline: []time.Duration{1, 2, 4}}
	d := Result{TupleTimeline: []time.Duration{1, 2}}
	if c.Equal(d) || d.Equal(c) {
		t.Error("timeline length difference ignored")
	}
}

// TestStreamSinkDeliveryAndMilestones runs a full small query with a sink
// attached and cross-checks the streamed tuples against the Result's
// first-tuple time and power-of-two timeline.
func TestStreamSinkDeliveryAndMilestones(t *testing.T) {
	w := smallFig5(t)
	type emission struct {
		at  time.Duration
		tup relation.Tuple
	}
	var got []emission
	cfg := testConfig()
	cfg.Stream = SinkFunc(func(at time.Duration, tup relation.Tuple) {
		// The backing array is only valid during the call: copy.
		got = append(got, emission{at, append(relation.Tuple(nil), tup...)})
	})
	rt, err := NewRuntime(cfg, w.Root, w.Dataset, uniform(w, 20*time.Microsecond))
	if err != nil {
		t.Fatal(err)
	}
	res, err := runSEQ(rt)
	if err != nil {
		t.Fatal(err)
	}
	if res.OutputRows == 0 {
		t.Fatal("query produced no output; the stream test needs result tuples")
	}
	if int64(len(got)) != res.OutputRows {
		t.Fatalf("sink saw %d tuples, Result says %d", len(got), res.OutputRows)
	}
	// Insert-only, correct-so-far: emission times never go backwards.
	for i := 1; i < len(got); i++ {
		if got[i].at < got[i-1].at {
			t.Fatalf("emission %d at %v before emission %d at %v", i, got[i].at, i-1, got[i-1].at)
		}
	}
	if got[0].at != res.FirstTupleTime {
		t.Errorf("first emission at %v, FirstTupleTime %v", got[0].at, res.FirstTupleTime)
	}
	// TupleTimeline[i] is the production instant of tuple number 2^i.
	for i, at := range res.TupleTimeline {
		n := 1 << i
		if n > len(got) {
			t.Fatalf("timeline entry %d for tuple %d beyond %d streamed tuples", i, n, len(got))
		}
		if got[n-1].at != at {
			t.Errorf("timeline[%d] = %v, tuple %d streamed at %v", i, at, n, got[n-1].at)
		}
	}
	// The timeline covers exactly the powers of two within the output count.
	want := 0
	for n := int64(1); n <= res.OutputRows; n *= 2 {
		want++
	}
	if len(res.TupleTimeline) != want {
		t.Errorf("timeline has %d entries, want %d for %d rows", len(res.TupleTimeline), want, res.OutputRows)
	}
	if res.FirstTupleTime > res.ResponseTime {
		t.Errorf("first tuple at %v after completion %v", res.FirstTupleTime, res.ResponseTime)
	}

	// The sink is observation only: the same run without it is identical.
	cfg2 := testConfig()
	rt2, err := NewRuntime(cfg2, w.Root, w.Dataset, uniform(w, 20*time.Microsecond))
	if err != nil {
		t.Fatal(err)
	}
	res2, err := runSEQ(rt2)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Equal(res2) {
		t.Errorf("streaming sink perturbed the run:\nwith    %v\nwithout %v", res, res2)
	}
}
