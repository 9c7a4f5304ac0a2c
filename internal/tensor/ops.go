package tensor

import "fmt"

// Reference operator implementations. The functional NPU simulator is
// validated against these: a program compiled to NeuISA and executed on
// the simulated systolic array must reproduce these results bit-for-bit
// (modulo float accumulation order, which both sides perform in the same
// k-major order).

// MatMul computes C = A·B for A [M×K] and B [K×N].
func MatMul(a, b *Tensor) *Tensor {
	if a.Shape.Rank() != 2 || b.Shape.Rank() != 2 {
		panic("tensor: MatMul requires rank-2 operands")
	}
	m, k := a.Shape[0], a.Shape[1]
	k2, n := b.Shape[0], b.Shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMul inner dims %d vs %d", k, k2))
	}
	c := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var sum float32
			for p := 0; p < k; p++ {
				sum += a.Data[i*k+p] * b.Data[p*n+j]
			}
			c.Data[i*n+j] = sum
		}
	}
	return c
}

// ReLU applies max(0, x) elementwise.
func ReLU(a *Tensor) *Tensor {
	c := New(a.Shape...)
	for i, x := range a.Data {
		if x > 0 {
			c.Data[i] = x
		}
	}
	return c
}
