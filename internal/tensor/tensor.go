// Package tensor is the reference side of the functional NPU
// simulator's checks: dense row-major float32 tensors and the operators
// a program run on the simulated engines must reproduce. Only tests and
// examples/neuisa use it. Tensors are deliberately simple because they
// exist to verify the simulator, not to be a performance-critical math
// library.
package tensor

import "fmt"

// Shape is a tensor shape; dimensions are in row-major order.
type Shape []int

// Elems returns the total element count. An empty shape is a scalar (1).
func (s Shape) Elems() int64 {
	n := int64(1)
	for _, d := range s {
		n *= int64(d)
	}
	return n
}

// Rank returns the number of dimensions.
func (s Shape) Rank() int { return len(s) }

// Equal reports whether two shapes are identical.
func (s Shape) Equal(o Shape) bool {
	if len(s) != len(o) {
		return false
	}
	for i := range s {
		if s[i] != o[i] {
			return false
		}
	}
	return true
}

// Valid reports whether every dimension is positive.
func (s Shape) Valid() bool {
	for _, d := range s {
		if d <= 0 {
			return false
		}
	}
	return true
}

// Clone returns a copy of the shape.
func (s Shape) Clone() Shape { return append(Shape(nil), s...) }

// Tensor is a dense row-major float32 tensor.
type Tensor struct {
	Shape Shape
	Data  []float32
}

// New allocates a zero tensor of the given shape.
func New(shape ...int) *Tensor {
	s := Shape(shape)
	if !s.Valid() {
		panic(fmt.Sprintf("tensor: invalid shape %v", s))
	}
	return &Tensor{Shape: s.Clone(), Data: make([]float32, s.Elems())}
}

// MaxAbsDiff returns the largest absolute elementwise difference between
// two same-shaped tensors.
func MaxAbsDiff(a, b *Tensor) float64 {
	if !a.Shape.Equal(b.Shape) {
		panic(fmt.Sprintf("tensor: shape mismatch %v vs %v", a.Shape, b.Shape))
	}
	var m float64
	for i := range a.Data {
		d := float64(a.Data[i]) - float64(b.Data[i])
		if d < 0 {
			d = -d
		}
		if d > m {
			m = d
		}
	}
	return m
}
