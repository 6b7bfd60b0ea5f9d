package tensor

import (
	"math"
	"testing"
)

// refMatMul is the naive scalar reference with the canonical kk-ascending
// one-add-at-a-time fold the tiled kernels promise to preserve bit-exactly.
func refMatMul(a, b *Tensor) *Tensor {
	m, k, n := a.Dim(0), a.Dim(1), b.Dim(1)
	out := New(m, n)
	for i := 0; i < m; i++ {
		for kk := 0; kk < k; kk++ {
			av := a.Data[i*k+kk]
			for j := 0; j < n; j++ {
				out.Data[i*n+j] += av * b.Data[kk*n+j]
			}
		}
	}
	return out
}

func refTMatMul(a, b *Tensor) *Tensor {
	k, m, n := a.Dim(0), a.Dim(1), b.Dim(1)
	out := New(m, n)
	for i := 0; i < m; i++ {
		for kk := 0; kk < k; kk++ {
			av := a.Data[kk*m+i]
			for j := 0; j < n; j++ {
				out.Data[i*n+j] += av * b.Data[kk*n+j]
			}
		}
	}
	return out
}

func assertBitEqual(t *testing.T, got, want *Tensor, what string) {
	t.Helper()
	for i := range want.Data {
		if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
			t.Fatalf("%s: elem %d = %v (bits %#08x), want %v (bits %#08x)",
				what, i, got.Data[i], math.Float32bits(got.Data[i]),
				want.Data[i], math.Float32bits(want.Data[i]))
		}
	}
}

// TestTiledKernelsBitExact checks the register-tiled kernels against the
// scalar fold across awkward shapes (odd rows, non-multiple-of-4 k,
// columns past one n-block) including zeros in the data.
func TestTiledKernelsBitExact(t *testing.T) {
	rng := NewRNG(7)
	shapes := [][3]int{{1, 1, 1}, {2, 4, 8}, {3, 5, 7}, {5, 9, nBlock + 3}, {7, 13, 33}, {64, 64, 64}}
	for _, s := range shapes {
		m, k, n := s[0], s[1], s[2]
		a := Randn(rng, 1, m, k)
		b := Randn(rng, 1, k, n)
		// Sprinkle exact zeros so the removed zero-skip path is exercised.
		for i := 0; i < len(a.Data); i += 3 {
			a.Data[i] = 0
		}
		assertBitEqual(t, MatMul(a, b), refMatMul(a, b), "MatMul")

		at := Randn(rng, 1, k, m)
		assertBitEqual(t, TMatMul(at, b), refTMatMul(at, b), "TMatMul")

		bt := b.Transpose2D()
		got := MatMulT(a, bt)
		want := refMatMul(a, b)
		if got.Dim(0) != m || got.Dim(1) != n {
			t.Fatalf("MatMulT shape %v", got.Shape())
		}
		// MatMulT folds dot products as stride-4 partials, so compare
		// against MatMul only up to rounding.
		for i := range want.Data {
			diff := math.Abs(float64(got.Data[i]) - float64(want.Data[i]))
			if diff > 1e-4*(1+math.Abs(float64(want.Data[i]))) {
				t.Fatalf("MatMulT elem %d = %v, want ≈ %v", i, got.Data[i], want.Data[i])
			}
		}
	}
}

// TestMatMulNaNPropagation: 0 × NaN must produce NaN in every kernel of
// the family — the zero-skip this replaces silently zeroed overflowed
// fp16 gradients before STV validation could scan them.
func TestMatMulNaNPropagation(t *testing.T) {
	nan := float32(math.NaN())

	// a has an exact zero exactly where b carries a NaN row.
	a := FromSlice([]float32{1, 0, 2, 3}, 2, 2)
	b := FromSlice([]float32{5, 6, nan, nan}, 2, 2)
	out := MatMul(a, b)
	for i, v := range out.Data {
		if !math.IsNaN(float64(v)) {
			t.Fatalf("MatMul elem %d = %v, want NaN (0×NaN must propagate)", i, v)
		}
	}

	// TMatMul: zero activation column times NaN gradient row.
	at := FromSlice([]float32{1, 0, 0, 0}, 2, 2) // aᵀ row 1 is all zero
	bg := FromSlice([]float32{5, 6, nan, nan}, 2, 2)
	outT := TMatMul(at, bg)
	for i, v := range outT.Data {
		if !math.IsNaN(float64(v)) {
			t.Fatalf("TMatMul elem %d = %v, want NaN", i, v)
		}
	}

	// MatMulT: NaN anywhere in a shared k-row reaches every dot using it.
	am := FromSlice([]float32{0, 1, 0, 2}, 2, 2)
	bm := FromSlice([]float32{nan, 1, nan, 2}, 2, 2)
	outM := MatMulT(am, bm)
	for i, v := range outM.Data {
		if !math.IsNaN(float64(v)) {
			t.Fatalf("MatMulT elem %d = %v, want NaN", i, v)
		}
	}

	// Inf × 0 is likewise NaN, the other overflow signature.
	inf := float32(math.Inf(1))
	ai := FromSlice([]float32{0, 0, 0, 0}, 2, 2)
	bi := FromSlice([]float32{inf, inf, inf, inf}, 2, 2)
	outI := MatMul(ai, bi)
	for i, v := range outI.Data {
		if !math.IsNaN(float64(v)) {
			t.Fatalf("MatMul Inf×0 elem %d = %v, want NaN", i, v)
		}
	}
}

// TestTMatMulAccumBitExact pins the weight-gradient accumulate entry: over
// a row sub-range and on top of a non-zero partial it equals the naive
// one-add-at-a-time fold bit for bit — serial, and split into bands by
// the worker pool — chaining two sub-ranges equals one call over their
// union, and a zero activation times a NaN gradient still yields NaN.
func TestTMatMulAccumBitExact(t *testing.T) {
	rng := NewRNG(13)
	// The last shape is past parallelThreshold, so parallelRows bands it.
	for _, s := range [][3]int{{3, 7, 5}, {5, 13, nBlock + 3}, {96, 90, 96}} {
		m, k, n := s[0], s[1], s[2]
		a, b := Randn(rng, 1, k, m), Randn(rng, 1, k, n)
		for i := 0; i < len(a.Data); i += 3 {
			a.Data[i] = 0
		}
		partial := Randn(rng, 1, m, n)
		lo, mid, hi := 1, k/2, k-1

		want := partial.Clone()
		for i := 0; i < m; i++ {
			for kk := lo; kk < hi; kk++ {
				av := a.Data[kk*m+i]
				for j := 0; j < n; j++ {
					want.Data[i*n+j] += av * b.Data[kk*n+j]
				}
			}
		}
		got := partial.Clone()
		TMatMulAccum(got.Data, a, b, lo, hi)
		assertBitEqual(t, got, want, "TMatMulAccum sub-range")

		chained := partial.Clone()
		TMatMulAccum(chained.Data, a, b, lo, mid)
		TMatMulAccum(chained.Data, a, b, mid, hi)
		assertBitEqual(t, chained, want, "TMatMulAccum chained")
	}

	nan := float32(math.NaN())
	at := FromSlice([]float32{1, 0, 0, 0}, 2, 2) // aᵀ row 1 is all zero
	bg := FromSlice([]float32{5, 6, nan, nan}, 2, 2)
	out := []float32{1, 2, 3, 4}
	TMatMulAccum(out, at, bg, 1, 2)
	for i, v := range out {
		if !math.IsNaN(float64(v)) {
			t.Fatalf("TMatMulAccum elem %d = %v, want NaN (0×NaN must propagate)", i, v)
		}
	}
}

// TestIntoVariants checks the Into kernels against their allocating
// wrappers and verify they fully overwrite stale output contents.
func TestIntoVariants(t *testing.T) {
	rng := NewRNG(11)
	a := Randn(rng, 1, 5, 7)
	b := Randn(rng, 1, 7, 9)
	at := Randn(rng, 1, 7, 5)
	bt := Randn(rng, 1, 9, 7)

	out := New(5, 9)
	out.Fill(123)
	MatMulInto(out, a, b)
	assertBitEqual(t, out, MatMul(a, b), "MatMulInto")

	out.Fill(-7)
	MatMulTInto(out, a, bt)
	assertBitEqual(t, out, MatMulT(a, bt), "MatMulTInto")

	out.Fill(42)
	TMatMulInto(out, at, b)
	assertBitEqual(t, out, TMatMul(at, b), "TMatMulInto")
}

// TestShapeValidation: FromSlice and Reshape must reject non-positive
// dims just like New — two negative dims used to pass the element-count
// check and corrupt later Row/At indexing.
func TestShapeValidation(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic on non-positive dim", name)
			}
		}()
		f()
	}
	data := make([]float32, 6)
	mustPanic("FromSlice(-2,-3)", func() { FromSlice(data, -2, -3) })
	mustPanic("FromSlice(0,…)", func() { FromSlice(nil, 0, 5) })
	mustPanic("Reshape(-2,-3)", func() { FromSlice(data, 2, 3).Reshape(-2, -3) })
	mustPanic("Reshape(0)", func() { FromSlice(data, 6).Reshape(0, 6) })
	mustPanic("New(-1)", func() { New(-1, 4) })
	// Valid shapes still work.
	if got := FromSlice(data, 2, 3).Reshape(3, 2).Dim(0); got != 3 {
		t.Fatalf("Reshape(3,2).Dim(0) = %d", got)
	}
}
