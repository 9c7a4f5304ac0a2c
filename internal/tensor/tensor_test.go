package tensor

import (
	"testing"
	"testing/quick"
)

func TestShapeElemsAndBytes(t *testing.T) {
	cases := []struct {
		s     Shape
		elems int64
	}{
		{Shape{}, 1},
		{Shape{7}, 7},
		{Shape{3, 4}, 12},
		{Shape{2, 3, 4, 5}, 120},
	}
	for _, c := range cases {
		if got := c.s.Elems(); got != c.elems {
			t.Errorf("%v.Elems() = %d, want %d", c.s, got, c.elems)
		}
	}
}

func TestShapeEqualAndClone(t *testing.T) {
	a := Shape{2, 3}
	b := a.Clone()
	if !a.Equal(b) {
		t.Fatal("clone not equal")
	}
	b[0] = 9
	if a.Equal(b) {
		t.Fatal("mutating clone affected original comparison")
	}
	if a.Equal(Shape{2, 3, 1}) {
		t.Fatal("different ranks compared equal")
	}
}

func TestMatMulSmall(t *testing.T) {
	a := &Tensor{Shape: Shape{2, 3}, Data: []float32{1, 2, 3, 4, 5, 6}}
	b := &Tensor{Shape: Shape{3, 2}, Data: []float32{7, 8, 9, 10, 11, 12}}
	c := MatMul(a, b)
	want := []float32{58, 64, 139, 154}
	for i, w := range want {
		if c.Data[i] != w {
			t.Fatalf("MatMul[%d] = %v, want %v", i, c.Data[i], w)
		}
	}
}

func TestMatMulIdentity(t *testing.T) {
	const n = 16
	id := New(n, n)
	for i := 0; i < n; i++ {
		id.Data[i*n+i] = 1
	}
	a := New(n, n)
	for i := range a.Data {
		a.Data[i] = float32(i%13) - 6
	}
	c := MatMul(a, id)
	if MaxAbsDiff(a, c) != 0 {
		t.Fatal("A·I != A")
	}
}

func TestMatMulDimensionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched MatMul did not panic")
		}
	}()
	MatMul(New(2, 3), New(4, 2))
}

func TestReLU(t *testing.T) {
	a := &Tensor{Shape: Shape{4}, Data: []float32{-1, 0, 2, -0.5}}
	c := ReLU(a)
	want := []float32{0, 0, 2, 0}
	for i, w := range want {
		if c.Data[i] != w {
			t.Fatalf("ReLU[%d] = %v, want %v", i, c.Data[i], w)
		}
	}
}

func TestElementwiseProperties(t *testing.T) {
	cfg := &quick.Config{MaxCount: 50}
	mk := func(vals []float32) *Tensor {
		if len(vals) == 0 {
			vals = []float32{0}
		}
		return &Tensor{Shape: Shape{len(vals)}, Data: vals}
	}
	// ReLU is idempotent.
	if err := quick.Check(func(xs []float32) bool {
		a := mk(xs)
		r := ReLU(a)
		return MaxAbsDiff(r, ReLU(r)) == 0
	}, cfg); err != nil {
		t.Error(err)
	}
}
