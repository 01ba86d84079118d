// Package sim provides the virtual-time cost simulator underlying the whole
// reproduction: a mono-processor mediator CPU measured in instructions at a
// configurable MIPS rating, a single-disk I/O subsystem with a small page
// cache, and network message costs. The parameter values are those of
// Table 1 of the paper (Bouganim et al., ICDE 2000), themselves the
// "classical parameters" of parallel-database simulation studies.
//
// All simulated durations are time.Duration values on a virtual clock; no
// wall-clock time is involved anywhere in the engine.
package sim

import (
	"fmt"
	"time"
)

// Params holds every cost parameter of the simulation. The zero value is not
// usable; start from DefaultParams and override fields as needed, then call
// Validate.
type Params struct {
	// CPUMips is the mediator CPU speed in million instructions per second
	// (Table 1: 100 MIPS).
	CPUMips float64

	// DiskLatency is the rotational latency of the mediator's local disk
	// (Table 1: 17 ms).
	DiskLatency time.Duration
	// DiskSeek is the average seek time (Table 1: 5 ms).
	DiskSeek time.Duration
	// DiskTransferBytesPerSec is the sustained transfer rate
	// (Table 1: 6 MB/s).
	DiskTransferBytesPerSec float64
	// IOCachePages is the size of the I/O cache in pages (Table 1: 8).
	// Pages found in the cache are served without disk traffic.
	IOCachePages int
	// IOInstr is the CPU cost, in instructions, of issuing one physical I/O
	// (Table 1: 3000).
	IOInstr int64
	// NumDisks is the number of local disks at the mediator (Table 1: 1).
	NumDisks int

	// TupleSize is the size of a tuple in bytes (Table 1: 40).
	TupleSize int
	// PageSize is the size of a disk page in bytes (Table 1: 8 KB).
	PageSize int

	// MoveTupleInstr is the CPU cost of moving a tuple (Table 1: 100).
	MoveTupleInstr int64
	// HashSearchInstr is the CPU cost of searching for a match in a hash
	// table (Table 1: 100).
	HashSearchInstr int64
	// ProduceResultInstr is the CPU cost of producing a result tuple
	// (Table 1: 50).
	ProduceResultInstr int64

	// NetworkBandwidthBitsPerSec is the wrapper-to-mediator network
	// bandwidth (Table 1: 100 Mb/s).
	NetworkBandwidthBitsPerSec float64
	// MessageInstr is the CPU cost of sending or receiving one message
	// (Table 1: 200,000).
	MessageInstr int64
	// PagesPerMessage is the message payload in pages. Table 1 fixes the
	// per-message cost but not the payload; the default of 4 pages
	// reproduces the paper's headline gains and is swept in an ablation
	// bench (see DESIGN.md §3).
	PagesPerMessage int
}

// DefaultParams returns the Table 1 parameter values.
func DefaultParams() Params {
	return Params{
		CPUMips:                    100,
		DiskLatency:                17 * time.Millisecond,
		DiskSeek:                   5 * time.Millisecond,
		DiskTransferBytesPerSec:    6e6,
		IOCachePages:               8,
		IOInstr:                    3000,
		NumDisks:                   1,
		TupleSize:                  40,
		PageSize:                   8192,
		MoveTupleInstr:             100,
		HashSearchInstr:            100,
		ProduceResultInstr:         50,
		NetworkBandwidthBitsPerSec: 100e6,
		MessageInstr:               200000,
		PagesPerMessage:            4,
	}
}

// Validate reports the first invalid field, or nil if the parameters are
// usable.
func (p Params) Validate() error {
	switch {
	case p.CPUMips <= 0:
		return fmt.Errorf("sim: CPUMips must be positive, got %v", p.CPUMips)
	case p.DiskLatency < 0:
		return fmt.Errorf("sim: DiskLatency must be non-negative, got %v", p.DiskLatency)
	case p.DiskSeek < 0:
		return fmt.Errorf("sim: DiskSeek must be non-negative, got %v", p.DiskSeek)
	case p.DiskTransferBytesPerSec <= 0:
		return fmt.Errorf("sim: DiskTransferBytesPerSec must be positive, got %v", p.DiskTransferBytesPerSec)
	case p.IOCachePages < 0:
		return fmt.Errorf("sim: IOCachePages must be non-negative, got %d", p.IOCachePages)
	case p.IOInstr < 0:
		return fmt.Errorf("sim: IOInstr must be non-negative, got %d", p.IOInstr)
	case p.NumDisks <= 0:
		return fmt.Errorf("sim: NumDisks must be positive, got %d", p.NumDisks)
	case p.TupleSize <= 0:
		return fmt.Errorf("sim: TupleSize must be positive, got %d", p.TupleSize)
	case p.PageSize < p.TupleSize:
		return fmt.Errorf("sim: PageSize (%d) must be at least TupleSize (%d)", p.PageSize, p.TupleSize)
	case p.MoveTupleInstr < 0 || p.HashSearchInstr < 0 || p.ProduceResultInstr < 0:
		return fmt.Errorf("sim: per-tuple instruction costs must be non-negative")
	case p.NetworkBandwidthBitsPerSec <= 0:
		return fmt.Errorf("sim: NetworkBandwidthBitsPerSec must be positive, got %v", p.NetworkBandwidthBitsPerSec)
	case p.MessageInstr < 0:
		return fmt.Errorf("sim: MessageInstr must be non-negative, got %d", p.MessageInstr)
	case p.PagesPerMessage <= 0:
		return fmt.Errorf("sim: PagesPerMessage must be positive, got %d", p.PagesPerMessage)
	}
	return nil
}

// InstrTime converts an instruction count into virtual CPU time.
func (p Params) InstrTime(instr int64) time.Duration {
	return time.Duration(float64(instr) / p.CPUMips * 1e3) // instr/MIPS = microseconds
}

// TuplesPerPage is the number of tuples that fit in one page.
func (p Params) TuplesPerPage() int {
	n := p.PageSize / p.TupleSize
	if n < 1 {
		n = 1
	}
	return n
}

// TuplesPerMessage is the number of tuples carried by one wrapper-to-mediator
// message.
func (p Params) TuplesPerMessage() int {
	return p.TuplesPerPage() * p.PagesPerMessage
}

// PageTransferTime is the raw disk transfer time of one page.
func (p Params) PageTransferTime() time.Duration {
	return time.Duration(float64(p.PageSize) / p.DiskTransferBytesPerSec * float64(time.Second))
}

// DiskAccessTime is the positioning cost of one random disk access
// (seek plus rotational latency).
func (p Params) DiskAccessTime() time.Duration {
	return p.DiskSeek + p.DiskLatency
}

// NetworkTupleTime is the time to push one tuple through the network link.
func (p Params) NetworkTupleTime() time.Duration {
	bits := float64(p.TupleSize) * 8
	return time.Duration(bits / p.NetworkBandwidthBitsPerSec * float64(time.Second))
}

// ReceiveTupleInstr is the amortized per-tuple CPU cost of receiving
// messages at the mediator: the per-message cost spread over the message
// payload.
func (p Params) ReceiveTupleInstr() int64 {
	return p.MessageInstr / int64(p.TuplesPerMessage())
}
