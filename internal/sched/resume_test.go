package sched

import (
	"math"
	"testing"
	"testing/quick"
)

// TestCheckpointAtBoundaries pins the checkpoint contract serve's
// preemptive temporal sharing is built on.
func TestCheckpointAtBoundaries(t *testing.T) {
	cases := []struct {
		total, elapsed, quantum float64
		wantBoundary            float64
	}{
		{10000, 0, 2048, 0},        // nothing run: checkpoint immediately
		{10000, 1, 2048, 2048},     // mid-quantum: round up
		{10000, 2048, 2048, 2048},  // exactly on a boundary: stop here
		{10000, 2049, 2048, 4096},  // just past: next boundary
		{10000, 9000, 2048, 10000}, // boundary past the end: cap at total
		{10000, 12000, 2048, 10000},
		{10000, -5, 2048, 0}, // clamped elapsed
	}
	for _, c := range cases {
		rp := CheckpointAt(c.total, c.elapsed, c.quantum)
		if rp.Boundary != c.wantBoundary {
			t.Errorf("CheckpointAt(%v, %v, %v).Boundary = %v, want %v",
				c.total, c.elapsed, c.quantum, rp.Boundary, c.wantBoundary)
		}
		if rp.Completed != rp.Boundary {
			t.Errorf("Completed %v != Boundary %v", rp.Completed, rp.Boundary)
		}
		if rp.Completed+rp.Remaining != c.total {
			t.Errorf("CheckpointAt(%v, %v, %v): %v + %v != total — work not conserved",
				c.total, c.elapsed, c.quantum, rp.Completed, rp.Remaining)
		}
	}
	if rp := CheckpointAt(0, 5, 64); rp.Frac != 1 || rp.Remaining != 0 {
		t.Errorf("empty run checkpoint = %+v; want nothing owed", rp)
	}
}

// TestCheckpointAtProperties quick-checks the invariants for arbitrary
// inputs: the boundary is quantum-aligned (or capped), never before the
// observed progress, and the split always partitions total exactly.
func TestCheckpointAtProperties(t *testing.T) {
	f := func(totalU, elapsedU uint32, quantumU uint16) bool {
		total := float64(totalU%1_000_000) + 1
		elapsed := float64(elapsedU % 1_200_000)
		quantum := float64(quantumU%8192) + 1
		rp := CheckpointAt(total, elapsed, quantum)
		if rp.Completed+rp.Remaining != total {
			return false
		}
		clamped := math.Min(elapsed, total)
		if rp.Boundary < clamped || rp.Boundary > total {
			return false
		}
		if rp.Boundary < total && math.Mod(rp.Boundary, quantum) != 0 {
			return false
		}
		if rp.Frac < 0 || rp.Frac > 1 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}
