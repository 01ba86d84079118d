package sim

import (
	"testing"
	"time"
)

func TestClockWorkAndStallAccounting(t *testing.T) {
	c := NewClock()
	if c.Now() != 0 || c.Busy() != 0 || c.Idle() != 0 {
		t.Fatalf("fresh clock not at zero: %v/%v/%v", c.Now(), c.Busy(), c.Idle())
	}
	c.Work(3 * time.Millisecond)
	c.Stall(5 * time.Millisecond) // +2ms idle
	c.Work(time.Millisecond)
	if c.Now() != 6*time.Millisecond {
		t.Errorf("Now = %v, want 6ms", c.Now())
	}
	if c.Busy() != 4*time.Millisecond {
		t.Errorf("Busy = %v, want 4ms", c.Busy())
	}
	if c.Idle() != 2*time.Millisecond {
		t.Errorf("Idle = %v, want 2ms", c.Idle())
	}
	if c.Busy()+c.Idle() != c.Now() {
		t.Errorf("busy+idle != now: %v+%v != %v", c.Busy(), c.Idle(), c.Now())
	}
}

func TestClockStallToPastIsNoop(t *testing.T) {
	c := NewClock()
	c.Work(10 * time.Millisecond)
	c.Stall(5 * time.Millisecond)
	if c.Now() != 10*time.Millisecond || c.Idle() != 0 {
		t.Errorf("stall to past changed clock: now=%v idle=%v", c.Now(), c.Idle())
	}
}

func TestClockWaitUntilIsBusy(t *testing.T) {
	c := NewClock()
	c.WaitUntil(7 * time.Millisecond)
	if c.Now() != 7*time.Millisecond || c.Busy() != 7*time.Millisecond || c.Idle() != 0 {
		t.Errorf("WaitUntil accounting wrong: now=%v busy=%v idle=%v", c.Now(), c.Busy(), c.Idle())
	}
	c.WaitUntil(3 * time.Millisecond) // no-op
	if c.Now() != 7*time.Millisecond {
		t.Errorf("WaitUntil to past moved clock to %v", c.Now())
	}
}

func TestClockNegativeWorkPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative Work did not panic")
		}
	}()
	NewClock().Work(-1)
}

func TestClockReset(t *testing.T) {
	c := NewClock()
	c.Work(time.Second)
	c.Stall(2 * time.Second)
	c.Reset()
	if c.Now() != 0 || c.Busy() != 0 || c.Idle() != 0 {
		t.Errorf("Reset left state: %v/%v/%v", c.Now(), c.Busy(), c.Idle())
	}
}
