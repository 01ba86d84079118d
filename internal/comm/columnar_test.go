package comm

import (
	"testing"
	"time"

	"dqs/internal/relation"
)

// TestQueueColumnarModeGuards pins the protocol misuse panics around the
// slot width: pushes of another width are rejected, SetColumnar is rejected
// on a non-empty queue, and Reset returns the queue to width zero. A pop
// sets its batch to the ring's width, and an empty pop leaves it alone.
func TestQueueColumnarModeGuards(t *testing.T) {
	wantPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	q := NewQueue("w", 4)
	q.SetColumnar(2)
	if q.Width() != 2 {
		t.Fatalf("Width = %d after SetColumnar(2)", q.Width())
	}
	pass := make([]bool, 1)
	wantPanic("narrow push", func() { q.PushColsN([][]int64{{7}}, []bool{true}, []time.Duration{0}) })
	wantPanic("ragged push", func() { q.PushColsN([][]int64{{7}, {8, 9}}, []bool{true}, []time.Duration{0}) })
	wantPanic("push without pass bits", func() { q.PushColsN([][]int64{{7}, {8}}, nil, []time.Duration{0}) })
	q.PushColsN([][]int64{{7}, {8}}, []bool{true}, []time.Duration{0})
	wantPanic("SetColumnar on non-empty queue", func() { q.SetColumnar(3) })
	wantPanic("SetColumnar negative width", func() { NewQueue("x", 1).SetColumnar(-1) })

	b := relation.NewBatch(1)
	if n := q.PopColsN(0, b, pass); n != 1 || b.Width() != 2 || !pass[0] || b.Col(0)[0] != 7 || b.Col(1)[0] != 8 {
		t.Fatalf("PopColsN round-trip: n=%d pass=%v cols=%v,%v", n, pass, b.Col(0), b.Col(1))
	}
	wantPanic("SetColumnar with debt outstanding", func() { q.SetColumnar(3) })
	q.Credit(0)

	q.Reset("w")
	if q.Width() != 0 {
		t.Errorf("Reset left width %d", q.Width())
	}
	if n := q.PopColsN(0, b, pass); n != 0 || b.Width() != 2 || b.Len() != 1 {
		t.Errorf("empty pop after Reset: n=%d, batch width %d with %d rows; want 0 and the batch untouched", n, b.Width(), b.Len())
	}
}
