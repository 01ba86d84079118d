package operator

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"dqs/internal/relation"
)

// FuzzJoinGather interprets its input as an op stream over one hash table
// and checks the engine's probe path — chain heads, the entry walk and a
// gather of each match behind a probe prefix, straight into a destination
// table's Extend storage — against a map[int64][]Tuple model, match order
// included. Each op is one byte (low three bits: the op; high bits: its
// argument), and values come from the following bytes: a value byte
// divisible by four picks an extreme key (math.MinInt64, math.MaxInt64, -1
// or 0), any other a key in [-3, 3], so chains are long and extremes
// collide in the bucket array. Ops: insert one row with Insert, insert a
// run with InsertBatch, insert a run through Extend, probe a run of keys
// (Heads, then Head, Chain, Entry and the gather for each), Reset, and
// Recycle onto a new key column at a new width (1 to 5). Rows is checked
// after every op and DistinctKeys at the end, so inserts between probes
// stay pending and each probe links them in one pass.
func FuzzJoinGather(f *testing.F) {
	f.Add([]byte{0x00, 0x01, 0x02, 0x03, 0x41, 0x05, 0x06, 0x07, 0x03, 0x22, 0x01, 0x04, 0x08})
	f.Add([]byte{0x25, 0x0c, 0x01, 0x42, 0x04, 0x08, 0x05, 0x09, 0x83, 0x00, 0x04, 0x08, 0x0c, 0x04, 0x0d, 0x03, 0x11})
	f.Fuzz(func(t *testing.T, in []byte) {
		if err := fuzzJoinGather(in); err != nil {
			t.Fatal(err)
		}
	})
}

// gatherPrefix is the probe row fuzzJoinGather gathers each match behind.
var gatherPrefix = relation.Tuple{math.MinInt64, 7}

func fuzzJoinGather(in []byte) error {
	next := func() byte {
		if len(in) == 0 {
			return 0
		}
		b := in[0]
		in = in[1:]
		return b
	}
	key := func() int64 {
		b := next()
		if b%4 == 0 {
			return [...]int64{math.MinInt64, math.MaxInt64, -1, 0}[b/4%4]
		}
		return int64(b%7) - 3
	}
	width, keyIdx := 3, 1
	h := NewHashTable(keyIdx)
	model := map[int64][]relation.Tuple{}
	rows := 0
	row := func() relation.Tuple {
		t := make(relation.Tuple, width)
		for c := range t {
			t[c] = key()
		}
		return t
	}
	add := func(t relation.Tuple) {
		k := t[keyIdx]
		model[k] = append(model[k], t)
		rows++
	}
	var heads []int32
	var ents []int32
	dst := NewHashTable(0)
	for op := 0; len(in) > 0; op++ {
		b := next()
		arg := int(b >> 3)
		switch b & 7 {
		case 0: // Insert
			t := row()
			h.Insert(t)
			add(t)
		case 1: // InsertBatch
			ts := make([]relation.Tuple, arg%9)
			for i := range ts {
				ts[i] = row()
				add(ts[i])
			}
			h.InsertBatch(ts)
		case 2: // Extend, filled before the next probe
			n := arg % 9
			vals := h.Extend(width, n)
			if len(vals) != n*width {
				return fmt.Errorf("op %d: Extend(%d, %d) returned %d values", op, width, n, len(vals))
			}
			for i := range n {
				t := row()
				copy(vals[i*width:], t)
				add(t)
			}
		case 3, 4: // probe a run of keys and gather every match
			keys := make([]int64, 1+arg%6)
			for i := range keys {
				keys[i] = key()
			}
			heads = sizedHeads(heads, len(keys))
			h.Heads(keys, heads)
			for i, k := range keys {
				if hd := h.Head(k); hd != heads[i] {
					return fmt.Errorf("op %d: Head(%d) = %d, Heads says %d", op, k, hd, heads[i])
				}
				ents = h.Chain(ents[:0], heads[i])
				dst.Reset()
				w := len(gatherPrefix) + width
				out := dst.Extend(w, len(ents))
				for r, e := range ents {
					copy(out[r*w+copy(out[r*w:], gatherPrefix):], h.Entry(e))
				}
				var got []relation.Tuple
				for r := range ents {
					got = append(got, dst.Entry(int32(r)))
				}
				var want []relation.Tuple
				for _, m := range model[k] {
					want = append(want, append(append(relation.Tuple{}, gatherPrefix...), m...))
				}
				if !reflect.DeepEqual(got, want) {
					return fmt.Errorf("op %d: key %d gathered %v, model has %v", op, k, got, want)
				}
			}
		case 5: // Reset
			h.Reset()
			model, rows = map[int64][]relation.Tuple{}, 0
		default: // Recycle onto a new key column at a new width
			width = 1 + arg%5
			keyIdx = int(next()) % width
			h.Recycle(keyIdx)
			model, rows = map[int64][]relation.Tuple{}, 0
		}
		if h.Rows() != int64(rows) {
			return fmt.Errorf("op %d: Rows = %d, model has %d", op, h.Rows(), rows)
		}
	}
	if h.DistinctKeys() != len(model) {
		return fmt.Errorf("DistinctKeys = %d, model has %d", h.DistinctKeys(), len(model))
	}
	return nil
}

// sizedHeads returns heads resliced to n, reallocated when too short.
func sizedHeads(heads []int32, n int) []int32 {
	if cap(heads) < n {
		return make([]int32, n)
	}
	return heads[:n]
}
