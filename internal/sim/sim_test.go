package sim

import (
	"testing"
	"testing/quick"
)

func TestEngineRunsEventsInTimeOrder(t *testing.T) {
	e := NewEngine()
	var got []Time
	for _, at := range []Time{30, 10, 20, 10, 0} {
		at := at
		e.At(at, func(now Time) { got = append(got, now) })
	}
	e.Run()
	want := []Time{0, 10, 10, 20, 30}
	if len(got) != len(want) {
		t.Fatalf("ran %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d at %d, want %d (order %v)", i, got[i], want[i], got)
		}
	}
}

func TestEngineFIFOWithinSameCycle(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func(Time) { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-cycle events not FIFO: %v", order)
		}
	}
}

func TestEnginePriorityOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.AtPriority(5, 2, func(Time) { order = append(order, 2) })
	e.AtPriority(5, 0, func(Time) { order = append(order, 0) })
	e.AtPriority(5, 1, func(Time) { order = append(order, 1) })
	e.Run()
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("priority order wrong: %v", order)
	}
}

func TestEngineAfterSchedulesRelative(t *testing.T) {
	e := NewEngine()
	var fired Time
	e.At(100, func(now Time) {
		e.After(50, func(now Time) { fired = now })
	})
	e.Run()
	if fired != 150 {
		t.Fatalf("After fired at %d, want 150", fired)
	}
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine()
	ran := false
	ev := e.At(10, func(Time) { ran = true })
	if !e.Cancel(ev) {
		t.Fatal("Cancel returned false for pending event")
	}
	if e.Cancel(ev) {
		t.Fatal("double Cancel returned true")
	}
	e.Run()
	if ran {
		t.Fatal("cancelled event ran")
	}
}

func TestEngineSchedulingInPastPanics(t *testing.T) {
	e := NewEngine()
	e.At(10, func(Time) {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	e.At(5, func(Time) {})
}

func TestEngineHalt(t *testing.T) {
	e := NewEngine()
	count := 0
	e.At(1, func(Time) { count++; e.Halt() })
	e.At(2, func(Time) { count++ })
	e.Run()
	if count != 1 {
		t.Fatalf("halt did not stop engine: ran %d events", count)
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", e.Pending())
	}
}

func TestEngineReentrantScheduling(t *testing.T) {
	// Events scheduled by events in the same cycle must still run.
	e := NewEngine()
	depth := 0
	var recurse func(Time)
	recurse = func(now Time) {
		if depth < 100 {
			depth++
			e.At(now, recurse)
		}
	}
	e.At(0, recurse)
	e.Run()
	if depth != 100 {
		t.Fatalf("reentrant scheduling depth = %d, want 100", depth)
	}
	if e.Now() != 0 {
		t.Fatalf("clock moved to %d during same-cycle recursion", e.Now())
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed RNGs diverged at draw %d", i)
		}
	}
	c := NewRNG(43)
	same := 0
	for i := 0; i < 1000; i++ {
		if NewRNG(42).Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 10 {
		t.Fatalf("different seeds produced %d/1000 identical draws", same)
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(7)
	if err := quick.Check(func(_ int) bool {
		f := r.Float64()
		return f >= 0 && f < 1
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRNGIntnRange(t *testing.T) {
	r := NewRNG(9)
	if err := quick.Check(func(n uint16) bool {
		m := int(n%1000) + 1
		v := r.Intn(m)
		return v >= 0 && v < m
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRNGExpMeanApprox(t *testing.T) {
	r := NewRNG(13)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Exp(10)
	}
	mean := sum / n
	if mean < 9.5 || mean > 10.5 {
		t.Fatalf("Exp(10) sample mean = %v", mean)
	}
}
