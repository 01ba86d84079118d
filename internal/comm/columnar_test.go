package comm

import (
	"testing"
	"time"

	"dqs/internal/relation"
)

// TestQueueColumnarModeGuards pins the protocol misuse panics around the
// slot width: pushes and pops of another width are rejected, SetColumnar is
// rejected on a non-empty queue, and Reset returns the queue to width zero.
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
	wantPanic("narrow pop", func() { q.PopColsN(0, relation.NewBatch(1), pass) })
	wantPanic("SetColumnar on non-empty queue", func() { q.SetColumnar(3) })
	wantPanic("SetColumnar negative width", func() { NewQueue("x", 1).SetColumnar(-1) })

	b := relation.NewBatch(2)
	if n := q.PopColsN(0, b, pass); n != 1 || !pass[0] || b.Col(0)[0] != 7 || b.Col(1)[0] != 8 {
		t.Fatalf("PopColsN round-trip: n=%d pass=%v cols=%v,%v", n, pass, b.Col(0), b.Col(1))
	}
	wantPanic("SetColumnar with debt outstanding", func() { q.SetColumnar(3) })
	q.Credit(0)

	q.Reset("w")
	if q.Width() != 0 {
		t.Errorf("Reset left width %d", q.Width())
	}
	wantPanic("wide pop after Reset", func() { q.PopColsN(0, b, pass) })
}
