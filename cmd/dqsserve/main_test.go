package main

import (
	"math"
	"strings"
	"testing"
	"time"
)

func baseOptions() options {
	return options{
		n:            3,
		small:        true,
		seed:         1,
		mode:         "isolated",
		maxActive:    2,
		discipline:   "fifo",
		fair:         "global",
		interarrival: time.Millisecond,
		wmin:         20 * time.Microsecond,
		memMB:        64,
	}
}

func TestRunIsolated(t *testing.T) {
	var sb strings.Builder
	if err := run(&sb, baseOptions()); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"q0", "q1", "q2", "served 3 queries (0 cancelled)"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunFusedSharedStreams(t *testing.T) {
	o := baseOptions()
	o.mode = "fused"
	o.sharedStreams = true
	o.fair = "roundrobin"
	o.stream = true
	var sb strings.Builder
	if err := run(&sb, o); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "shared ") || !strings.Contains(out, "query taps") {
		t.Errorf("output missing stream-sharing summary:\n%s", out)
	}
	if !strings.Contains(out, "first tuple streamed") {
		t.Errorf("output missing per-query stream latency:\n%s", out)
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	for _, tc := range []struct {
		mutate func(*options)
		want   []string // the error must mention each
	}{
		{func(o *options) { o.n = 0 }, []string{"-n"}},
		{func(o *options) { o.maxActive = -1 }, []string{"-max-active", "-1"}},
		{func(o *options) { o.timeout = -time.Second }, []string{"-timeout", "-1s"}},
		{func(o *options) { o.interarrival = -time.Second }, []string{"-interarrival", "-1s"}},
		{func(o *options) { o.interarrival = 9223372036 * time.Second }, []string{"-interarrival", "2562047h47m16s", "-n", "3"}},
		{func(o *options) { o.n = 1 << 20; o.interarrival = 5000000 * time.Second }, []string{"-interarrival", "1388h53m20s", "-n", "1048576"}},
		{func(o *options) { o.mode = "bogus" }, []string{"bogus"}},
		{func(o *options) { o.discipline = "bogus" }, []string{"bogus"}},
		{func(o *options) { o.fair = "bogus" }, []string{"bogus"}},
		{func(o *options) { o.mode = "isolated"; o.sharedStreams = true }, nil},
		{func(o *options) { o.memMB = math.NaN() }, []string{"-mem", "NaN"}},
		{func(o *options) { o.memMB = math.Inf(1) }, []string{"-mem", "+Inf"}},
		{func(o *options) { o.memMB = 1e30 }, []string{"-mem", "1e+30"}},
		{func(o *options) { o.memMB = 0 }, []string{"-mem"}},
		{func(o *options) { o.wmin = 5000000000 * time.Second }, []string{`source "A"`, "1388888h53m20s"}},
		{func(o *options) { o.wmin = 5000000000 * time.Second; o.mode = "fused"; o.sharedStreams = true }, []string{`"A"`, "1388888h53m20s"}},
	} {
		o := baseOptions()
		tc.mutate(&o)
		var sb strings.Builder
		err := run(&sb, o)
		if err == nil {
			t.Errorf("options %+v accepted", o)
			continue
		}
		for _, w := range tc.want {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("options %+v: error %q does not mention %q", o, err, w)
			}
		}
	}
}
