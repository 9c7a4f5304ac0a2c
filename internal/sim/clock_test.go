package sim

import "testing"

// TestClockAccessorGuard locks down the Now() contract the rest of the
// repository leans on: the clock is monotone, every callback observes
// Now() equal to its own scheduled timestamp, and Step leaves the clock
// at the last executed event without jumping past still-queued work.
// The serving subsystem derives latencies from subtracting Now()
// values, so a regression here silently corrupts every latency
// percentile.
func TestClockAccessorGuard(t *testing.T) {
	e := NewEngine()
	if e.Now() != 0 {
		t.Fatalf("fresh engine clock = %d, want 0", e.Now())
	}

	var observed []Time
	last := Time(0)
	record := func(now Time) {
		if now != e.Now() {
			t.Errorf("callback sees now=%d but Engine.Now()=%d", now, e.Now())
		}
		if now < last {
			t.Errorf("clock went backwards: %d after %d", now, last)
		}
		last = now
		observed = append(observed, now)
	}
	for _, at := range []Time{30, 10, 20, 10} {
		e.At(at, record)
	}

	// Three steps execute exactly the three earliest events and park the
	// clock at the last of them, not at the next queued event.
	for i := 0; i < 3; i++ {
		if !e.Step() {
			t.Fatalf("Step %d found the queue empty", i)
		}
	}
	if e.Now() != 20 {
		t.Fatalf("Now() after three steps = %d, want 20", e.Now())
	}
	if len(observed) != 3 {
		t.Fatalf("three steps ran %d events (%v), want 3", len(observed), observed)
	}
	if e.Pending() != 1 {
		t.Fatalf("pending after three steps = %d, want 1", e.Pending())
	}

	// Scheduling before Now() must panic — it always indicates a caller
	// bug, and the serving arrival streams rely on it firing loudly.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(5, record)
	}()

	if got := e.Run(); got != 30 {
		t.Fatalf("Run() final time = %d, want 30", got)
	}
	want := []Time{10, 10, 20, 30}
	for i, at := range want {
		if observed[i] != at {
			t.Fatalf("execution order %v, want %v", observed, want)
		}
	}
}

// TestCancelSemanticsGuard pins the documented Handle behaviour: one
// true per issued occurrence, false for fired/cancelled/zero handles.
func TestCancelSemanticsGuard(t *testing.T) {
	e := NewEngine()
	fired := 0
	h1 := e.At(10, func(Time) { fired++ })
	h2 := e.At(20, func(Time) { fired++ })

	if !e.Cancel(h2) {
		t.Fatal("first Cancel of a pending event must return true")
	}
	if e.Cancel(h2) {
		t.Fatal("second Cancel of the same handle must return false")
	}
	if e.Cancel(Handle{}) {
		t.Fatal("zero Handle must cancel nothing")
	}
	e.Run()
	if fired != 1 {
		t.Fatalf("fired %d events, want 1 (h2 cancelled)", fired)
	}
	if e.Cancel(h1) {
		t.Fatal("cancelling an already-fired event must return false")
	}
}
