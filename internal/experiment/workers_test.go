package experiment

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"dqs/internal/exec"
	"dqs/internal/workload"
)

// workersDiff runs one (workload, config, deliveries, strategy) cell on the
// serial path and on the partition-parallel path at several worker counts —
// AutoPartitions gives 2/4/8/16 workers 8/16/32/64 hash-table partitions —
// requiring every run summary to be deeply equal to the serial reference,
// virtual nanosecond for virtual nanosecond. This is the differential proof
// behind the morsel-style kernels: the worker count is a wall-clock knob
// only.
func workersDiff(t *testing.T, name string, w *workload.Workload, cfg exec.Config, mk func(w *workload.Workload) map[string]exec.Delivery, strategy string) {
	t.Helper()
	run := func(workers int) exec.Result {
		c := cfg
		c.Workers = workers
		res, err := runStrategy(w, c, mk(w), strategy)
		if err != nil {
			t.Fatalf("%s (workers=%d): %v", name, workers, err)
		}
		return res
	}
	ref := run(1)
	for _, workers := range []int{2, 4, 8, 16} {
		if got := run(workers); !reflect.DeepEqual(ref, got) {
			t.Errorf("%s: workers=%d diverged from serial:\nserial:   %+v\nparallel: %+v", name, workers, ref, got)
		}
	}
}

// TestParallelKernelsMatchSerial sweeps the differential check across the
// scheduling strategies, seeds and both delay classes of the dataflow
// suite.
func TestParallelKernelsMatchSerial(t *testing.T) {
	o := Options{Small: true}
	cfg := exec.DefaultConfig()
	for class, mk := range goldenDeliveries(cfg, o) {
		for _, strategy := range []string{"SEQ", "MA", "SCR", "DSE"} {
			for _, seed := range []int64{1, 2, 3} {
				w, err := o.loadWorkload(seed)
				if err != nil {
					t.Fatal(err)
				}
				c := cfg
				c.Seed = seed
				workersDiff(t, fmt.Sprintf("%s/%s seed %d", class, strategy, seed), w, c, mk, strategy)
			}
		}
	}
}

// TestParallelKernelsMatchSerialUnderMemoryPressure repeats the check at
// the ablation study's 2 MiB pressure point, driving the overflow paths —
// mid-merge UnpopN, stranded pending outputs, memory repair — through the
// parallel merge.
func TestParallelKernelsMatchSerialUnderMemoryPressure(t *testing.T) {
	o := Options{Small: true}
	cfg := exec.DefaultConfig()
	cfg.MemoryBytes = 2 << 20
	mk := func(w *workload.Workload) map[string]exec.Delivery {
		return uniformDeliveries(w, cfg.InitialWaitEstimate)
	}
	for _, strategy := range []string{"SEQ", "MA", "SCR", "DSE"} {
		for _, seed := range []int64{1, 2, 3} {
			w, err := o.loadWorkload(seed)
			if err != nil {
				t.Fatal(err)
			}
			c := cfg
			c.Seed = seed
			workersDiff(t, fmt.Sprintf("mem-pressure/%s seed %d", strategy, seed), w, c, mk, strategy)
		}
	}
}

// TestParallelFigureBytesMatchSerial renders the DelayClasses figure with
// the worker pool at 8 and requires output byte-identical to the serial
// render — the check the committed golden figures rely on.
func TestParallelFigureBytesMatchSerial(t *testing.T) {
	render := func(workers int) []byte {
		cfg := exec.DefaultConfig()
		cfg.Workers = workers
		o := Options{Small: true, Seeds: []int64{1, 2, 3}, Config: &cfg}
		fig, err := DelayClasses(o)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		var buf bytes.Buffer
		fig.Print(&buf)
		buf.WriteString(fig.CSV())
		return buf.Bytes()
	}
	ref := render(1)
	for _, workers := range []int{2, 8} {
		if got := render(workers); !bytes.Equal(ref, got) {
			t.Errorf("figure bytes diverged at workers=%d:\nserial:\n%s\nparallel:\n%s", workers, ref, got)
		}
	}
}
