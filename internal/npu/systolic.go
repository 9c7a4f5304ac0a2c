package npu

import "fmt"

// SystolicArray is the functional model of one matrix engine: a
// weight-stationary dim×dim grid. A weight tile W of shape K×N
// (K, N ≤ dim) is latched by loadw; each push streams one activation row
// x (length K) through the array; the corresponding output row y = x·W
// (length N) becomes available to pop in FIFO order.
//
// The model is functionally exact for tiled matrix multiplication: the
// dot products are accumulated in k-major order, the same order the
// reference tensor.MatMul uses, so results match bit-for-bit.
type SystolicArray struct {
	Dim int

	k, n    int       // latched tile shape
	weights []float32 // K×N row-major
	outputs [][]float32
	outHead int // FIFO head index into outputs (capacity is reused)

	// arena backs output rows in large chunks: rows are carved out
	// monotonically and never rewritten, so a popped row stays valid for
	// as long as the caller holds it while Push itself stays off the
	// allocator on all but the chunk-boundary iterations.
	arena []float32
}

// maxPendingRows bounds the output FIFO. Every compiled µTOp pops each
// row within a few pushes, so only a program that pushes without popping
// reaches it; unbounded, such a program grows the arena by 512 bytes per
// push until the interpreter's instruction cap, over 10 GB. 4096 rows of
// 128 lanes hold 2 MiB per ME.
const maxPendingRows = 1 << 12

// NewSystolicArray builds an idle array.
func NewSystolicArray(dim int) *SystolicArray { return &SystolicArray{Dim: dim} }

// LoadWeights latches a K×N tile read from src (row-major, len K*N).
func (s *SystolicArray) LoadWeights(src []float32, k, n int) error {
	if k < 1 || k > s.Dim || n < 1 || n > s.Dim {
		return fmt.Errorf("npu: weight tile %dx%d exceeds systolic dim %d", k, n, s.Dim)
	}
	if len(src) < k*n {
		return fmt.Errorf("npu: weight tile needs %d words, have %d", k*n, len(src))
	}
	s.k, s.n = k, n
	s.weights = append(s.weights[:0], src[:k*n]...)
	return nil
}

// Push streams activation row x (length K) through the array, producing
// one pending output row. The accumulation visits p = 0..K-1 for every
// output element exactly as the straightforward column walk does — only
// the memory access pattern changes (weights are streamed row-major),
// so results stay bit-identical while the inner loop stops striding the
// cache.
func (s *SystolicArray) Push(x []float32) error {
	if s.weights == nil {
		return fmt.Errorf("npu: push with no weights latched")
	}
	if len(x) != s.k {
		return fmt.Errorf("npu: pushed row length %d, tile K=%d", len(x), s.k)
	}
	if s.Pending() >= maxPendingRows {
		return fmt.Errorf("npu: output FIFO full (%d rows pending)", maxPendingRows)
	}
	y := s.allocRow(s.n)
	for j := range y {
		y[j] = 0
	}
	for p := 0; p < s.k; p++ {
		xv := x[p]
		wrow := s.weights[p*s.n : (p+1)*s.n]
		for j, w := range wrow {
			y[j] += xv * w
		}
	}
	if s.outHead > 0 && len(s.outputs) == cap(s.outputs) {
		n := copy(s.outputs, s.outputs[s.outHead:])
		for i := n; i < len(s.outputs); i++ {
			s.outputs[i] = nil
		}
		s.outputs = s.outputs[:n]
		s.outHead = 0
	}
	s.outputs = append(s.outputs, y)
	return nil
}

// allocRow carves an n-word row out of the arena, starting a fresh
// chunk when the current one is exhausted.
func (s *SystolicArray) allocRow(n int) []float32 {
	if len(s.arena)+n > cap(s.arena) {
		chunk := 1 << 14
		if n > chunk {
			chunk = n
		}
		s.arena = make([]float32, 0, chunk)
	}
	off := len(s.arena)
	s.arena = s.arena[:off+n]
	return s.arena[off : off+n : off+n]
}

// Pop removes and returns the oldest pending output row. The row
// remains owned by the caller (it is never overwritten by later
// pushes).
func (s *SystolicArray) Pop() ([]float32, error) {
	if s.outHead == len(s.outputs) {
		return nil, fmt.Errorf("npu: pop with no pending outputs")
	}
	y := s.outputs[s.outHead]
	s.outputs[s.outHead] = nil
	s.outHead++
	if s.outHead == len(s.outputs) {
		s.outputs = s.outputs[:0]
		s.outHead = 0
	}
	return y, nil
}

// Pending reports the number of un-popped output rows.
func (s *SystolicArray) Pending() int { return len(s.outputs) - s.outHead }
