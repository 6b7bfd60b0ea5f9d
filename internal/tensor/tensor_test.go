package tensor

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func TestNewAndIndexing(t *testing.T) {
	a := New(2, 3)
	if a.Size() != 6 || a.Dim(0) != 2 || a.Dim(1) != 3 {
		t.Fatalf("shape wrong: %v", a)
	}
	a.Set(5, 1, 2)
	if a.Row(1)[2] != 5 {
		t.Errorf("Set(1,2) landed wrong: %v", a.Row(1))
	}
	if a.Data[5] != 5 {
		t.Errorf("row-major layout violated")
	}
}

func TestFromSliceAndReshape(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	b := a.Reshape(3, 2)
	if b.Row(2)[1] != 6 {
		t.Errorf("reshape view wrong: %v", b.Row(2)[1])
	}
	b.Set(99, 0, 0)
	if a.Row(0)[0] != 99 {
		t.Errorf("reshape should share storage")
	}
	c := a.Clone()
	c.Set(-1, 0, 0)
	if a.Row(0)[0] != 99 {
		t.Errorf("clone should not share storage")
	}
}

func TestPanics(t *testing.T) {
	mustPanic(t, "bad dim", func() { New(0, 3) })
	mustPanic(t, "bad index", func() { New(2, 2).Set(1, 2, 0) })
	mustPanic(t, "rank", func() { New(2, 2).Set(1, 1) })
	mustPanic(t, "from slice", func() { FromSlice([]float32{1}, 2, 2) })
	mustPanic(t, "reshape", func() { New(2, 2).Reshape(3) })
	mustPanic(t, "add mismatch", func() { AddInto(New(2), New(2), New(3)) })
	mustPanic(t, "matmul dims", func() { MatMul(New(2, 3), New(4, 2)) })
}

func TestElementwise(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	b := FromSlice([]float32{10, 20, 30, 40}, 2, 2)
	out := New(2, 2)
	AddInto(out, a, b)
	if out.Data[3] != 44 {
		t.Errorf("add: %v", out.Data)
	}
	out.Scale(0.5)
	if out.Data[2] != 16.5 {
		t.Errorf("scale: %v", out.Data)
	}
}

func TestReductions(t *testing.T) {
	a := FromSlice([]float32{3, -4, 0, 1}, 4)
	if a.Sum() != 0 {
		t.Errorf("sum = %v", a.Sum())
	}
	g := GlobalNorm([]*Tensor{FromSlice([]float32{3}, 1), FromSlice([]float32{4}, 1)})
	if math.Abs(g-5) > 1e-9 {
		t.Errorf("global norm = %v", g)
	}
}

func TestMatMulSmall(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]float32{7, 8, 9, 10, 11, 12}, 3, 2)
	c := MatMul(a, b)
	want := []float32{58, 64, 139, 154}
	for i, w := range want {
		if c.Data[i] != w {
			t.Fatalf("matmul[%d] = %v, want %v", i, c.Data[i], w)
		}
	}
}

func naiveMatMul(a, b *Tensor) *Tensor {
	m, k, n := a.Dim(0), a.Dim(1), b.Dim(1)
	out := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for kk := 0; kk < k; kk++ {
				s += float64(a.Data[i*k+kk]) * float64(b.Data[kk*n+j])
			}
			out.Data[i*n+j] = float32(s)
		}
	}
	return out
}

func approxEqual(a, b *Tensor, tol float64) bool {
	if !SameShape(a, b) {
		return false
	}
	for i := range a.Data {
		if math.Abs(float64(a.Data[i]-b.Data[i])) > tol*(1+math.Abs(float64(b.Data[i]))) {
			return false
		}
	}
	return true
}

func TestMatMulMatchesNaiveProperty(t *testing.T) {
	rng := NewRNG(7)
	f := func(mi, ki, ni uint8) bool {
		m, k, n := int(mi%17)+1, int(ki%17)+1, int(ni%17)+1
		a := Randn(rng, 1, m, k)
		b := Randn(rng, 1, k, n)
		return approxEqual(MatMul(a, b), naiveMatMul(a, b), 1e-4)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestMatMulLargeParallelPath(t *testing.T) {
	rng := NewRNG(11)
	k := pastThreshold(130, 110)
	a := Randn(rng, 1, 130, k)
	b := Randn(rng, 1, k, 110)
	if !approxEqual(MatMul(a, b), naiveMatMul(a, b), 1e-4) {
		t.Fatal("parallel matmul diverges from naive")
	}
}

func TestMatMulTAndTMatMul(t *testing.T) {
	rng := NewRNG(13)
	a := Randn(rng, 1, 9, 7)
	b := Randn(rng, 1, 11, 7)
	got := MatMulT(a, b) // a(9,7) × b(11,7)ᵀ = (9,11)
	want := naiveMatMul(a, b.Transpose2D())
	if !approxEqual(got, want, 1e-4) {
		t.Fatal("MatMulT wrong")
	}
	c := Randn(rng, 1, 7, 9)
	d := Randn(rng, 1, 7, 11)
	got2 := TMatMul(c, d) // c(7,9)ᵀ × d(7,11) = (9,11)
	want2 := naiveMatMul(c.Transpose2D(), d)
	if !approxEqual(got2, want2, 1e-4) {
		t.Fatal("TMatMul wrong")
	}
}

func TestTranspose2D(t *testing.T) {
	rng := NewRNG(17)
	a := Randn(rng, 1, 40, 33)
	at := a.Transpose2D()
	for i := 0; i < 40; i++ {
		for j := 0; j < 33; j++ {
			if a.Row(i)[j] != at.Row(j)[i] {
				t.Fatalf("transpose mismatch at %d,%d", i, j)
			}
		}
	}
	// Involution property.
	if !approxEqual(at.Transpose2D(), a, 0) {
		t.Fatal("double transpose is not identity")
	}
}

func TestSoftmaxRows(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 1000, 1000, 1000}, 2, 3)
	a.SoftmaxRows()
	// Rows sum to 1.
	for i := 0; i < 2; i++ {
		var s float64
		for j := 0; j < 3; j++ {
			s += float64(a.Row(i)[j])
		}
		if math.Abs(s-1) > 1e-5 {
			t.Errorf("row %d sums to %v", i, s)
		}
	}
	// Large inputs must not produce NaN (stability).
	if math.IsNaN(float64(a.Row(1)[0])) {
		t.Error("softmax overflow")
	}
	if math.Abs(float64(a.Row(1)[0])-1.0/3.0) > 1e-5 {
		t.Errorf("uniform row wrong: %v", a.Row(1)[0])
	}
}

func TestSoftmaxMonotonicProperty(t *testing.T) {
	rng := NewRNG(23)
	f := func(n uint8) bool {
		c := int(n%10) + 2
		a := Randn(rng, 2, 1, c)
		orig := a.Clone()
		a.SoftmaxRows()
		// softmax preserves ordering within the row
		for i := 0; i < c; i++ {
			for j := 0; j < c; j++ {
				if orig.Data[i] < orig.Data[j] && a.Data[i] > a.Data[j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint32() != b.Uint32() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(43)
	same := 0
	for i := 0; i < 100; i++ {
		if NewRNG(42).Uint32() == c.Uint32() {
			same++
		}
	}
	if same > 50 {
		t.Error("different seeds look identical")
	}
}

func TestRNGDistributions(t *testing.T) {
	rng := NewRNG(99)
	var sum, sumsq float64
	n := 20000
	for i := 0; i < n; i++ {
		v := float64(rng.NormFloat32())
		sum += v
		sumsq += v * v
	}
	mean := sum / float64(n)
	std := math.Sqrt(sumsq/float64(n) - mean*mean)
	if math.Abs(mean) > 0.05 {
		t.Errorf("normal mean = %v", mean)
	}
	if math.Abs(std-1) > 0.05 {
		t.Errorf("normal std = %v", std)
	}
	for i := 0; i < 1000; i++ {
		if v := rng.Float32(); v < 0 || v >= 1 {
			t.Fatalf("uniform out of range: %v", v)
		}
		if k := rng.Intn(7); k < 0 || k >= 7 {
			t.Fatalf("Intn out of range: %v", k)
		}
	}
}

func TestRandnAndUniformShapes(t *testing.T) {
	rng := NewRNG(5)
	a := Randn(rng, 0.02, 3, 4)
	if a.Size() != 12 {
		t.Errorf("randn size %d", a.Size())
	}
	u := Uniform(rng, -1, 1, 5)
	for _, v := range u.Data {
		if v < -1 || v >= 1 {
			t.Errorf("uniform value %v out of [-1,1)", v)
		}
	}
}

func TestRowView(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	r := a.Row(1)
	if len(r) != 3 || r[0] != 4 {
		t.Fatalf("row view wrong: %v", r)
	}
	r[0] = 40
	if a.Row(1)[0] != 40 {
		t.Error("row view should alias")
	}
}

func TestZeroFill(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3}, 3)
	a.Fill(7)
	if a.Data[1] != 7 {
		t.Error("fill")
	}
	a.Zero()
	if a.Sum() != 0 {
		t.Error("zero")
	}
}

// Test-only helpers: the package's callers index and reduce through
// Data directly.

// Set writes an element by multi-index.
func (t *Tensor) Set(v float32, idx ...int) {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: index rank %d != shape rank %d", len(idx), len(t.shape)))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of shape %v", idx, t.shape))
		}
		off = off*t.shape[i] + x
	}
	t.Data[off] = v
}

// Sum returns the float64 sum of all elements.
func (t *Tensor) Sum() float64 {
	var s float64
	for _, v := range t.Data {
		s += float64(v)
	}
	return s
}

// GlobalNorm returns sqrt(sum of squared L2 norms) across tensors.
func GlobalNorm(tensors []*Tensor) float64 {
	var s float64
	for _, t := range tensors {
		for _, v := range t.Data {
			s += float64(v) * float64(v)
		}
	}
	return math.Sqrt(s)
}
