package sim

import (
	"testing"
	"time"
)

func TestDefaultParamsMatchTable1(t *testing.T) {
	p := DefaultParams()
	if err := p.Validate(); err != nil {
		t.Fatalf("default params invalid: %v", err)
	}
	if p.CPUMips != 100 {
		t.Errorf("CPU speed = %v, want 100 MIPS", p.CPUMips)
	}
	if p.DiskLatency != 17*time.Millisecond || p.DiskSeek != 5*time.Millisecond {
		t.Errorf("disk latency/seek = %v/%v, want 17ms/5ms", p.DiskLatency, p.DiskSeek)
	}
	if p.DiskTransferBytesPerSec != 6e6 {
		t.Errorf("transfer rate = %v, want 6 MB/s", p.DiskTransferBytesPerSec)
	}
	if p.IOCachePages != 8 || p.IOInstr != 3000 || p.NumDisks != 1 {
		t.Errorf("I/O params = %d pages / %d instr / %d disks", p.IOCachePages, p.IOInstr, p.NumDisks)
	}
	if p.TupleSize != 40 || p.PageSize != 8192 {
		t.Errorf("tuple/page = %d/%d, want 40/8192", p.TupleSize, p.PageSize)
	}
	if p.MoveTupleInstr != 100 || p.HashSearchInstr != 100 || p.ProduceResultInstr != 50 {
		t.Errorf("per-tuple instr = %d/%d/%d, want 100/100/50",
			p.MoveTupleInstr, p.HashSearchInstr, p.ProduceResultInstr)
	}
	if p.NetworkBandwidthBitsPerSec != 100e6 || p.MessageInstr != 200000 {
		t.Errorf("network = %v bps / %d instr", p.NetworkBandwidthBitsPerSec, p.MessageInstr)
	}
}

func TestParamsValidateRejectsBadFields(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Params)
	}{
		{"zero CPU", func(p *Params) { p.CPUMips = 0 }},
		{"negative latency", func(p *Params) { p.DiskLatency = -1 }},
		{"negative seek", func(p *Params) { p.DiskSeek = -1 }},
		{"zero transfer", func(p *Params) { p.DiskTransferBytesPerSec = 0 }},
		{"negative cache", func(p *Params) { p.IOCachePages = -1 }},
		{"negative io instr", func(p *Params) { p.IOInstr = -1 }},
		{"zero disks", func(p *Params) { p.NumDisks = 0 }},
		{"zero tuple", func(p *Params) { p.TupleSize = 0 }},
		{"page smaller than tuple", func(p *Params) { p.PageSize = 10 }},
		{"negative move", func(p *Params) { p.MoveTupleInstr = -1 }},
		{"zero network", func(p *Params) { p.NetworkBandwidthBitsPerSec = 0 }},
		{"negative message", func(p *Params) { p.MessageInstr = -1 }},
		{"zero pages per message", func(p *Params) { p.PagesPerMessage = 0 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := DefaultParams()
			tc.mutate(&p)
			if err := p.Validate(); err == nil {
				t.Errorf("Validate accepted %s", tc.name)
			}
		})
	}
}

func TestInstrTime(t *testing.T) {
	p := DefaultParams() // 100 MIPS: 100 instructions take 1µs
	if got := p.InstrTime(100); got != time.Microsecond {
		t.Errorf("InstrTime(100) = %v, want 1µs", got)
	}
	if got := p.InstrTime(0); got != 0 {
		t.Errorf("InstrTime(0) = %v, want 0", got)
	}
	if got := p.InstrTime(200000); got != 2*time.Millisecond {
		t.Errorf("InstrTime(200000) = %v, want 2ms", got)
	}
}

func TestPageAndMessageGeometry(t *testing.T) {
	p := DefaultParams()
	if got := p.TuplesPerPage(); got != 204 { // 8192/40
		t.Errorf("TuplesPerPage = %d, want 204", got)
	}
	if got := p.TuplesPerMessage(); got != 4*204 {
		t.Errorf("TuplesPerMessage = %d, want 816", got)
	}
	// A tiny page still holds one tuple.
	p2 := p
	p2.PageSize = p2.TupleSize
	if got := p2.TuplesPerPage(); got != 1 {
		t.Errorf("TuplesPerPage(page=tuple) = %d, want 1", got)
	}
}

func TestDerivedTimes(t *testing.T) {
	p := DefaultParams()
	// One 8KB page at 6 MB/s: 8192/6e6 s ≈ 1.365ms.
	if got := p.PageTransferTime(); got < 1360*time.Microsecond || got > 1370*time.Microsecond {
		t.Errorf("PageTransferTime = %v, want ≈1.365ms", got)
	}
	if got := p.DiskAccessTime(); got != 22*time.Millisecond {
		t.Errorf("DiskAccessTime = %v, want 22ms", got)
	}
	// 40 bytes at 100 Mb/s = 3.2µs.
	if got := p.NetworkTupleTime(); got != 3200*time.Nanosecond {
		t.Errorf("NetworkTupleTime = %v, want 3.2µs", got)
	}
	// 200000 instr over 816 tuples = 245 instr/tuple.
	if got := p.ReceiveTupleInstr(); got != 200000/816 {
		t.Errorf("ReceiveTupleInstr = %d, want %d", got, 200000/816)
	}
}
