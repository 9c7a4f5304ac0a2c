package sched

import "math"

// Resumable fluid runs: the serving layer (internal/serve) prices a
// batched invocation as one opaque fluid run of `total` service cycles
// (CostDB measures it through this package's simulator). Preemptive
// temporal sharing needs to stop such a run part-way and restart it
// later with exactly the work it had left. The fluid model cannot stop
// anywhere: execution checkpoints only at µTOp boundaries — the same
// granularity §III-E preempts harvested MEs at — which this package
// models as a fixed µTOp quantum. CheckpointAt is that contract: given
// how far a run has progressed, it reports the first legal preemption
// point and the exact service split around it.

// ResumePoint describes a fluid run checkpointed at a µTOp-quantum
// boundary. Completed and Remaining partition the run's total service
// cycles (Completed + Remaining == total, bit-for-bit when the boundary
// is a whole number of cycles — see CheckpointAt), which is what makes
// preempt/resume work-conserving: the resumed run owes precisely
// Remaining cycles, no more, no less.
type ResumePoint struct {
	// Boundary is the progress point (service cycles from the start of
	// the run) where execution actually stops: the first quantum
	// boundary at or after the observed progress, capped at the total.
	Boundary float64
	// Completed is the service completed at the boundary (== Boundary).
	Completed float64
	// Remaining is the service still owed after the boundary.
	Remaining float64
	// Frac is Completed/total — the completed fraction the
	// checkpoint/restore hook reports at preemption time.
	Frac float64
}

// CheckpointAt computes the earliest legal checkpoint of a fluid run of
// `total` service cycles that has progressed `elapsed` cycles: the next
// µTOp-quantum boundary (a multiple of `quantum`) at or after elapsed,
// capped at total. A run already sitting exactly on a boundary
// checkpoints immediately. The quantum must be positive; elapsed is
// clamped into [0, total].
//
// The split is exact (Completed + Remaining == total) only when the
// boundary is a whole number of cycles below 2^53, as it is for a whole
// quantum or at the total: then total − b needs no rounding. A
// fractional quantum can miss total by an ulp.
func CheckpointAt(total, elapsed, quantum float64) ResumePoint {
	if total <= 0 {
		return ResumePoint{Frac: 1}
	}
	if elapsed < 0 {
		elapsed = 0
	}
	if elapsed > total {
		elapsed = total
	}
	b := math.Ceil(elapsed/quantum) * quantum
	if b > total {
		b = total
	}
	return ResumePoint{
		Boundary:  b,
		Completed: b,
		Remaining: total - b,
		Frac:      b / total,
	}
}
