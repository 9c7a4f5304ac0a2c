// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel is intentionally minimal: a monotonically advancing cycle
// clock, a priority queue of timestamped events, and a seeded random
// number generator. The serving fleet, the cluster churn simulator and
// the transfer links (internal/xfer) run on the Engine; the fluid
// scheduler and the workload generators draw only from the RNG. Whole
// experiments are reproducible bit-for-bit from a seed.
//
// The queue is a value-based 4-ary implicit heap: events are stored
// inline in a single slice rather than as individually heap-allocated
// nodes behind an interface, so scheduling an event performs no
// allocation once the slice has warmed up, and sift operations touch
// 4x fewer cache lines than a binary pointer heap. This is the classic
// low-overhead DES event-queue design; it is what keeps the serving
// fleet and the cluster churn simulator off the allocator in their hot
// loops.
//
// # Cancellation semantics
//
// Every At/AtPriority/After call returns a Handle naming that one
// scheduled occurrence. Handles are issued from a monotonically
// increasing sequence, are never reused, and the zero Handle is never
// issued — so a retained zero value can always be passed to Cancel
// safely. Cancel(h) removes the pending event and returns true exactly
// once; cancelling an event that has already fired, was already
// cancelled, or was never issued is a harmless no-op returning false.
// Cancellation does not disturb the clock or the ordering of the
// remaining events. The cost is O(n) in the pending-event count: Cancel
// is the cold path (a serving replica tearing down its batch-window
// timer), and keeping it linear keeps the hot push/pop paths free of
// per-event index bookkeeping.
package sim

import "fmt"

// Time is a simulation timestamp in NPU core cycles.
type Time uint64

// Handle identifies a scheduled event so it can be cancelled. The zero
// Handle is invalid and never issued.
type Handle struct{ seq uint64 }

// event is one queued unit of work, stored by value in the heap slice.
// Events compare by time, then by priority (lower runs first), then by
// sequence number (FIFO within a cycle) so execution order is fully
// deterministic.
type event struct {
	at  Time
	seq uint64
	pri int
	fn  func(now Time)
}

// Engine is a discrete-event simulation engine.
type Engine struct {
	now    Time
	heap   []event // 4-ary implicit min-heap
	nextID uint64
	halted bool
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine { return &Engine{nextID: 1} }

// Now returns the current simulation time.
func (e *Engine) Now() Time { return e.now }

// At schedules fn to run at the absolute time t. Scheduling in the past
// panics: it always indicates a logic error in the caller.
func (e *Engine) At(t Time, fn func(now Time)) Handle {
	return e.AtPriority(t, 0, fn)
}

// AtPriority schedules fn at time t with an explicit priority; events at
// the same time run in ascending priority order.
func (e *Engine) AtPriority(t Time, pri int, fn func(now Time)) Handle {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %d before now %d", t, e.now))
	}
	ev := event{at: t, pri: pri, seq: e.nextID, fn: fn}
	e.nextID++
	e.heap = append(e.heap, ev)
	e.siftUp(len(e.heap) - 1)
	return Handle{seq: ev.seq}
}

// After schedules fn to run d cycles from now.
func (e *Engine) After(d Time, fn func(now Time)) Handle {
	return e.At(e.now+d, fn)
}

// Cancel removes a pending event. Cancelling an already-fired or
// already-cancelled event is a no-op and returns false. Cancellation is
// O(n) in the number of pending events — it is a cold path; the hot
// push/pop paths stay branch-light because of it.
func (e *Engine) Cancel(h Handle) bool {
	if h.seq == 0 {
		return false
	}
	for i := range e.heap {
		if e.heap[i].seq == h.seq {
			e.removeAt(i)
			return true
		}
	}
	return false
}

// Pending reports the number of queued events.
func (e *Engine) Pending() int { return len(e.heap) }

// Halt stops Run after the currently executing event returns.
func (e *Engine) Halt() { e.halted = true }

// Step executes the single earliest event. It reports false when the
// queue is empty.
func (e *Engine) Step() bool {
	if len(e.heap) == 0 {
		return false
	}
	at, fn := e.heap[0].at, e.heap[0].fn
	e.removeAt(0)
	e.now = at
	fn(e.now)
	return true
}

// Run executes events until the queue is empty or Halt is called.
// It returns the final simulation time.
func (e *Engine) Run() Time {
	e.halted = false
	for !e.halted && e.Step() {
	}
	return e.now
}

// ---- 4-ary heap internals ----

// less orders events by (time, priority, sequence).
func (e *Engine) less(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.pri != b.pri {
		return a.pri < b.pri
	}
	return a.seq < b.seq
}

func (e *Engine) siftUp(i int) {
	h := e.heap
	ev := h[i]
	for i > 0 {
		parent := (i - 1) / 4
		if !e.less(&ev, &h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = ev
}

func (e *Engine) siftDown(i int) {
	h := e.heap
	n := len(h)
	ev := h[i]
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		min := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if e.less(&h[c], &h[min]) {
				min = c
			}
		}
		if !e.less(&h[min], &ev) {
			break
		}
		h[i] = h[min]
		i = min
	}
	h[i] = ev
}

// removeAt deletes the event at heap index i, releasing its closure so
// the garbage collector can reclaim captured state promptly.
func (e *Engine) removeAt(i int) {
	n := len(e.heap) - 1
	if i != n {
		moved := e.heap[n]
		e.heap[n] = event{}
		e.heap = e.heap[:n]
		e.heap[i] = moved
		e.siftDown(i)
		if e.heap[i].seq == moved.seq {
			e.siftUp(i)
		}
	} else {
		e.heap[n] = event{}
		e.heap = e.heap[:n]
	}
}
