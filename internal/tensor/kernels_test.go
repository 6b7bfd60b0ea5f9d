package tensor

import (
	"fmt"
	"math"
	"sync"
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

// refMatMulT is the fold MatMulTInto's doc comment promises (and
// internal/nn's pass golden depends on): four stride-4 partial sums per
// dot, folded ((s0+s1)+s2)+s3, then the k%4 tail one term at a time.
func refMatMulT(a, b *Tensor) *Tensor {
	m, k, n := a.Dim(0), a.Dim(1), b.Dim(0)
	out := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s [4]float32
			kk := 0
			for ; kk+4 <= k; kk += 4 {
				for l := range s {
					s[l] += a.Data[i*k+kk+l] * b.Data[j*k+kk+l]
				}
			}
			sum := s[0] + s[1] + s[2] + s[3]
			for ; kk < k; kk++ {
				sum += a.Data[i*k+kk] * b.Data[j*k+kk]
			}
			out.Data[i*n+j] = sum
		}
	}
	return out
}

// sameBits reports bit equality, or that both are NaN: the payload of a
// NaN made from two NaN operands is the one thing the contract leaves open
// (see matmul.go).
func sameBits(x, y float32) bool {
	return math.Float32bits(x) == math.Float32bits(y) || (x != x && y != y)
}

func assertBitEqual(t *testing.T, got, want *Tensor, what string) {
	t.Helper()
	for i := range want.Data {
		if !sameBits(got.Data[i], want.Data[i]) {
			t.Fatalf("%s: elem %d = %v (bits %#08x), want %v (bits %#08x)",
				what, i, got.Data[i], math.Float32bits(got.Data[i]),
				want.Data[i], math.Float32bits(want.Data[i]))
		}
	}
}

// mustPanic fails the test unless f panics.
func mustPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	f()
}

// pastThreshold returns the smallest inner dimension that makes an (m,·,n)
// product large enough for parallelRows to band it.
func pastThreshold(m, n int) int { return parallelThreshold/(2*m*n) + 1 }

// TestTiledKernelsBitExact checks the three entry points against the
// scalar folds across awkward shapes (odd rows, non-multiple-of-4 k,
// columns past one n-block, ragged edges around whole assembly tiles, one
// product large enough to be banded) including zeros in the data.
func TestTiledKernelsBitExact(t *testing.T) {
	rng := NewRNG(7)
	shapes := [][3]int{{1, 1, 1}, {2, 4, 8}, {3, 5, 7}, {5, 9, nBlock + 3}, {7, 13, 33}, {64, 64, 64},
		{37, 67, 53}, {130, 31, 530}, {66, pastThreshold(66, 70), 70}}
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
		assertBitEqual(t, MatMulT(a, bt), refMatMulT(a, bt), "MatMulT")
	}
}

// TestMatMulNaNPropagation: 0 × NaN (and 0 × ±Inf, the other overflow
// signature) must produce NaN in every kernel of the family — the zero-skip
// this replaces silently zeroed overflowed fp16 gradients before STV
// validation could scan them. Checked at 2×2, which only the Go loops see,
// and at a shape where whole assembly tiles do the work and the Go loops
// the ragged edge around them.
func TestMatMulNaNPropagation(t *testing.T) {
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	allNaN := func(what string, out *Tensor) {
		t.Helper()
		for i, v := range out.Data {
			if !math.IsNaN(float64(v)) {
				t.Fatalf("%s elem %d = %v, want NaN", what, i, v)
			}
		}
	}
	rng := NewRNG(5)
	for _, s := range [][3]int{{2, 2, 2}, {9, 14, 37}} {
		m, k, n := s[0], s[1], s[2]
		bad := k / 2
		// One poisoned k-row of b met by an all-zero a.
		for _, poison := range []float32{nan, inf, -inf} {
			b := New(k, n)
			b.Fill(1)
			for j := 0; j < n; j++ {
				b.Data[bad*n+j] = poison
			}
			allNaN("MatMul 0×poison", MatMul(New(m, k), b))
			allNaN("TMatMul 0×poison", TMatMul(New(k, m), b))
			allNaN("MatMulT 0×poison", MatMulT(New(m, k), b.Transpose2D()))
			partial := New(m, n)
			partial.Fill(3)
			TMatMulAccum(partial.Data, New(k, m), b, bad, bad+1)
			allNaN("TMatMulAccum 0×poison", partial)
		}
		// MatMulT: a NaN in a's shared k-column reaches every dot that uses
		// it, whatever finite values surround it.
		a, b := Randn(rng, 1, m, k), Randn(rng, 1, n, k)
		for i := 0; i < m; i++ {
			a.Data[i*k+bad] = nan
		}
		allNaN("MatMulT NaN column", MatMulT(a, b))
	}
}

// TestMatMulOperandValidation: the entry points reject an operand whose
// exported Data no longer covers its shape, and an output that is not 2-D,
// before any kernel — Go loop or assembly leaf — can index past it.
func TestMatMulOperandValidation(t *testing.T) {
	const m, k, n = 8, 8, 32 // whole assembly tiles in all three kernels
	truncated := func(rows, cols int) *Tensor {
		x := New(rows, cols)
		x.Data = x.Data[:len(x.Data)-1]
		return x
	}
	type entry struct {
		name string
		call func(out, a, b *Tensor)
		a, b [2]int
	}
	for _, e := range []entry{
		{"MatMulInto", MatMulInto, [2]int{m, k}, [2]int{k, n}},
		{"MatMulTInto", MatMulTInto, [2]int{m, k}, [2]int{n, k}},
		{"TMatMulInto", TMatMulInto, [2]int{k, m}, [2]int{k, n}},
	} {
		a, b, out := New(e.a[0], e.a[1]), New(e.b[0], e.b[1]), New(m, n)
		e.call(out, a, b) // the well-formed call passes
		mustPanic(t, e.name+" truncated a", func() { e.call(out, truncated(e.a[0], e.a[1]), b) })
		mustPanic(t, e.name+" truncated b", func() { e.call(out, a, truncated(e.b[0], e.b[1])) })
		mustPanic(t, e.name+" truncated out", func() { e.call(truncated(m, n), a, b) })
		mustPanic(t, e.name+" 1-D out", func() { e.call(New(m*n), a, b) })
		mustPanic(t, e.name+" 3-D a", func() { e.call(out, New(e.a[0], e.a[1], 1), b) })
	}
	a, b := New(k, m), New(k, n)
	mustPanic(t, "TMatMulAccum short dst", func() { TMatMulAccum(make([]float32, m*n-1), a, b, 0, k) })
	mustPanic(t, "TMatMulAccum truncated a", func() { TMatMulAccum(make([]float32, m*n), truncated(k, m), b, 0, k) })
	mustPanic(t, "TMatMulAccum range", func() { TMatMulAccum(make([]float32, m*n), a, b, 2, k+1) })
}

// TestMatMulEntriesAllocateNothing: serial or banded, an entry point's
// steady state is allocation-free — a band task is a pooled frame, not a
// closure. (AllocsPerRun truncates its average, so a frame the pool lost
// to a GC cycle does not flake this.)
func TestMatMulEntriesAllocateNothing(t *testing.T) {
	rng := NewRNG(3)
	for _, k := range []int{8, pastThreshold(64, 64)} {
		a, at := Randn(rng, 1, 64, k), Randn(rng, 1, k, 64)
		b, bt := Randn(rng, 1, k, 64), Randn(rng, 1, 64, k)
		out := New(64, 64)
		for name, f := range map[string]func(){
			"MatMulInto":   func() { MatMulInto(out, a, b) },
			"MatMulTInto":  func() { MatMulTInto(out, a, bt) },
			"TMatMulAccum": func() { TMatMulAccum(out.Data, at, b, 0, k) },
		} {
			f() // start the pool, fill the frame pool
			if got := testing.AllocsPerRun(20, f); got != 0 {
				t.Errorf("%s k=%d: %v allocs per call, want 0", name, k, got)
			}
		}
	}
}

// TestBandPoolConcurrentCallers: rank goroutines enter the pool at once,
// each banding its own product through a recycled frame; every caller
// must get its own product back, bit for bit (run under -race in CI).
func TestBandPoolConcurrentCallers(t *testing.T) {
	const callers, m, n = 4, 32, 48
	k := pastThreshold(m, n)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := NewRNG(uint64(100 + c))
			a, b := Randn(rng, 1, m, k), Randn(rng, 1, k, n)
			want, got := New(m, n), New(m, n)
			accumRows(want.Data, a.Data, b.Data, 0, m, k, n, k, 1) // one band, this goroutine
			for rep := 0; rep < 4; rep++ {
				MatMulInto(got, a, b)
				for i := range want.Data {
					if !sameBits(got.Data[i], want.Data[i]) {
						t.Errorf("caller %d rep %d: elem %d = %v, want %v", c, rep, i, got.Data[i], want.Data[i])
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
}

// TestTMatMulAccumBitExact pins the weight-gradient accumulate entry: over
// a row sub-range and on top of a non-zero partial it equals the naive
// one-add-at-a-time fold bit for bit — serial, and split into bands by
// the worker pool — and chaining two sub-ranges equals one call over their
// union. (0 × NaN through this entry: TestMatMulNaNPropagation.)
func TestTMatMulAccumBitExact(t *testing.T) {
	rng := NewRNG(13)
	// The last shape is past parallelThreshold over [lo,hi), so parallelRows
	// bands it.
	for _, s := range [][3]int{{3, 7, 5}, {5, 13, nBlock + 3}, {96, pastThreshold(96, 96) + 2, 96}} {
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
	data := make([]float32, 6)
	mustPanic(t, "FromSlice(-2,-3)", func() { FromSlice(data, -2, -3) })
	mustPanic(t, "FromSlice(0,…)", func() { FromSlice(nil, 0, 5) })
	mustPanic(t, "Reshape(-2,-3)", func() { FromSlice(data, 2, 3).Reshape(-2, -3) })
	mustPanic(t, "Reshape(0)", func() { FromSlice(data, 6).Reshape(0, 6) })
	mustPanic(t, "New(-1)", func() { New(-1, 4) })
	// Valid shapes still work.
	if got := FromSlice(data, 2, 3).Reshape(3, 2).Dim(0); got != 3 {
		t.Fatalf("Reshape(3,2).Dim(0) = %d", got)
	}
}

func BenchmarkMatMul256(b *testing.B) {
	rng := NewRNG(3)
	x := Randn(rng, 1, 256, 256)
	y := Randn(rng, 1, 256, 256)
	out := New(256, 256)
	MatMulInto(out, x, y) // warm-up: fault in pages, start the pool
	b.SetBytes(3 * 256 * 256 * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulInto(out, x, y)
	}
}

// BenchmarkLaneShapes runs the matmul entries at the products one lane of
// the bench's model issues (4 layers, hidden 128, seq 32, 2 rows a lane:
// 64 token rows): forward through the 128→384 and 512→128 projections,
// their dX through MatMulT, and one weight-gradient replay over 64 rows.
func BenchmarkLaneShapes(b *testing.B) {
	rng := NewRNG(3)
	for _, c := range []struct {
		op      string
		m, k, n int
	}{
		{"MatMul", 64, 128, 384}, {"MatMul", 64, 512, 128},
		{"MatMulT", 64, 384, 128}, {"MatMulT", 64, 128, 512},
		{"TMatMulAccum", 128, 64, 384},
	} {
		b.Run(fmt.Sprintf("%s/%dx%dx%d", c.op, c.m, c.k, c.n), func(b *testing.B) {
			out := New(c.m, c.n)
			var run func()
			switch c.op {
			case "MatMul":
				x, y := Randn(rng, 1, c.m, c.k), Randn(rng, 1, c.k, c.n)
				run = func() { MatMulInto(out, x, y) }
			case "MatMulT":
				x, y := Randn(rng, 1, c.m, c.k), Randn(rng, 1, c.n, c.k)
				run = func() { MatMulTInto(out, x, y) }
			default: // dW (m,n) += xᵀ·dy over k data rows
				x, dy := Randn(rng, 1, c.k, c.m), Randn(rng, 1, c.k, c.n)
				run = func() { TMatMulAccum(out.Data, x, dy, 0, c.k) }
			}
			run()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run()
			}
			b.ReportMetric(float64(2*c.m*c.k*c.n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
		})
	}
}
