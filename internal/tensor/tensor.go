// Package tensor is a minimal dense fp32 tensor library: the numeric
// substrate under the real (non-simulated) training path. It provides
// row-major tensors, a parallel blocked matmul, the elementwise and
// reduction kernels the transformer in internal/nn needs, and a
// deterministic RNG so every experiment is reproducible.
package tensor

import (
	"fmt"
	"math"
)

// Tensor is a dense row-major fp32 array.
type Tensor struct {
	Data  []float32
	shape []int
}

// New allocates a zero tensor with the given shape.
func New(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d <= 0 {
			panic(fmt.Sprintf("tensor: non-positive dim %d in %v", d, shape))
		}
		n *= d
	}
	return &Tensor{Data: make([]float32, n), shape: append([]int(nil), shape...)}
}

// FromSlice wraps data (not copied) with the given shape.
func FromSlice(data []float32, shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d <= 0 {
			panic(fmt.Sprintf("tensor: non-positive dim %d in %v", d, shape))
		}
		n *= d
	}
	if n != len(data) {
		panic(fmt.Sprintf("tensor: shape %v needs %d elems, have %d", shape, n, len(data)))
	}
	return &Tensor{Data: data, shape: append([]int(nil), shape...)}
}

// Shape returns the dimensions (not a copy; callers must not mutate).
func (t *Tensor) Shape() []int { return t.shape }

// Size returns the element count.
func (t *Tensor) Size() int { return len(t.Data) }

// Dim returns the i-th dimension.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// Clone deep-copies the tensor.
func (t *Tensor) Clone() *Tensor {
	out := &Tensor{Data: make([]float32, len(t.Data)), shape: append([]int(nil), t.shape...)}
	copy(out.Data, t.Data)
	return out
}

// Reshape returns a view with a new shape of equal size.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d <= 0 {
			panic(fmt.Sprintf("tensor: non-positive dim %d in %v", d, shape))
		}
		n *= d
	}
	if n != len(t.Data) {
		panic(fmt.Sprintf("tensor: reshape %v incompatible with %d elems", shape, len(t.Data)))
	}
	return &Tensor{Data: t.Data, shape: append([]int(nil), shape...)}
}

// Row returns row i of a 2D tensor as a slice view.
func (t *Tensor) Row(i int) []float32 {
	if len(t.shape) != 2 {
		panic("tensor: Row on non-2D tensor")
	}
	c := t.shape[1]
	return t.Data[i*c : (i+1)*c]
}

// Zero resets all elements in place.
func (t *Tensor) Zero() {
	for i := range t.Data {
		t.Data[i] = 0
	}
}

// Fill sets all elements to v.
func (t *Tensor) Fill(v float32) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

func (t *Tensor) String() string {
	return fmt.Sprintf("Tensor%v(%d elems)", t.shape, len(t.Data))
}

// SameShape reports whether a and b have identical shapes.
func SameShape(a, b *Tensor) bool {
	if len(a.shape) != len(b.shape) {
		return false
	}
	for i := range a.shape {
		if a.shape[i] != b.shape[i] {
			return false
		}
	}
	return true
}

// ---- elementwise ----

func assertSame(a, b *Tensor, op string) {
	if !SameShape(a, b) {
		panic(fmt.Sprintf("tensor: %s shape mismatch %v vs %v", op, a.shape, b.shape))
	}
}

// AddInto computes out = a + b (out may alias a or b).
func AddInto(out, a, b *Tensor) {
	assertSame(a, b, "add")
	assertSame(out, a, "add")
	for i := range out.Data {
		out.Data[i] = a.Data[i] + b.Data[i]
	}
}

// Scale multiplies in place by s.
func (t *Tensor) Scale(s float32) {
	for i := range t.Data {
		t.Data[i] *= s
	}
}

// ---- 2D helpers ----

// Transpose2D returns a new transposed 2D tensor.
func (t *Tensor) Transpose2D() *Tensor {
	if len(t.shape) != 2 {
		panic("tensor: Transpose2D on non-2D")
	}
	r, c := t.shape[0], t.shape[1]
	out := New(c, r)
	// Block-transposed loop for cache friendliness.
	const bs = 32
	for i0 := 0; i0 < r; i0 += bs {
		for j0 := 0; j0 < c; j0 += bs {
			iMax, jMax := min(i0+bs, r), min(j0+bs, c)
			for i := i0; i < iMax; i++ {
				for j := j0; j < jMax; j++ {
					out.Data[j*r+i] = t.Data[i*c+j]
				}
			}
		}
	}
	return out
}

// SoftmaxRows applies a numerically stable softmax to each row of a 2D
// tensor in place.
func (t *Tensor) SoftmaxRows() {
	if len(t.shape) != 2 {
		panic("tensor: SoftmaxRows on non-2D")
	}
	r, c := t.shape[0], t.shape[1]
	for i := 0; i < r; i++ {
		row := t.Data[i*c : (i+1)*c]
		maxv := row[0]
		for _, v := range row[1:] {
			if v > maxv {
				maxv = v
			}
		}
		var sum float64
		for j, v := range row {
			e := float32(math.Exp(float64(v - maxv)))
			row[j] = e
			sum += float64(e)
		}
		inv := float32(1.0 / sum)
		for j := range row {
			row[j] *= inv
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
