package tensor

// The matmul family: MatMul (a×b), MatMulT (a×bᵀ), TMatMul (aᵀ×b), each
// with an Into variant that reuses caller storage. All three share the
// banded worker pool in pool.go and the same kernel shape: a 2-row ×
// 4-k register tile (each loaded b value feeds two output rows; each
// output element takes four fused updates per pass) inside an n-block
// loop that keeps the streamed b panel inside L1/L2.
//
// Numerics contract: every output element is accumulated in the exact
// left-to-right kk-ascending order of the naive loop — the tile only
// reorders *loads*, never the floating-point fold — so results are
// bit-identical across band splits and to the scalar replay kernels in
// internal/nn. There is deliberately no skip of zero multiplicands:
// 0 × NaN must produce NaN so overflowed fp16 gradients reach the
// ScanBad validation scans instead of being silently zeroed.

// parallelThreshold is the FLOP count below which the kernels stay single
// threaded: band fan-out costs more than it saves on tiny products.
const parallelThreshold = 1 << 20

// nBlock is the output-column tile width: 4 b-rows × 512 columns ≈ 8 KiB
// of streamed panel per pass, comfortably inside L1.
const nBlock = 512

// MatMul returns a × b for 2D tensors: (m,k) × (k,n) → (m,n).
func MatMul(a, b *Tensor) *Tensor {
	out := New(a.Dim(0), b.Dim(1))
	MatMulInto(out, a, b)
	return out
}

// MatMulInto computes out = a × b, reusing out's storage.
func MatMulInto(out, a, b *Tensor) {
	if len(a.shape) != 2 || len(b.shape) != 2 {
		panic("tensor: MatMul requires 2D operands")
	}
	m, k := a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 {
		panic("tensor: MatMul inner dims differ")
	}
	if out.shape[0] != m || out.shape[1] != n {
		panic("tensor: MatMulInto output shape mismatch")
	}
	out.Zero()
	parallelRows(m, 2*m*k*n, func(lo, hi int) {
		matmulRows(out.Data, a.Data, b.Data, lo, hi, k, n)
	})
}

// matmulRows computes rows [lo,hi) of out += a×b. The `[:len(orow0)]`
// reslices are bounds-check-elimination hints: they let the compiler prove
// every indexed slice shares the loop bound, emptying the inner loop of
// checks.
func matmulRows(out, a, b []float32, lo, hi, k, n int) {
	for j0 := 0; j0 < n; j0 += nBlock {
		j1 := min(j0+nBlock, n)
		i := lo
		for ; i+2 <= hi; i += 2 {
			arow0 := a[i*k : (i+1)*k]
			arow1 := a[(i+1)*k : (i+2)*k]
			orow0 := out[i*n+j0 : i*n+j1]
			orow1 := out[(i+1)*n+j0:][:len(orow0)]
			kk := 0
			for ; kk+4 <= k; kk += 4 {
				a00, a01, a02, a03 := arow0[kk], arow0[kk+1], arow0[kk+2], arow0[kk+3]
				a10, a11, a12, a13 := arow1[kk], arow1[kk+1], arow1[kk+2], arow1[kk+3]
				b0 := b[kk*n+j0:][:len(orow0)]
				b1 := b[(kk+1)*n+j0:][:len(orow0)]
				b2 := b[(kk+2)*n+j0:][:len(orow0)]
				b3 := b[(kk+3)*n+j0:][:len(orow0)]
				for j := range orow0 {
					bv0, bv1, bv2, bv3 := b0[j], b1[j], b2[j], b3[j]
					orow0[j] = orow0[j] + a00*bv0 + a01*bv1 + a02*bv2 + a03*bv3
					orow1[j] = orow1[j] + a10*bv0 + a11*bv1 + a12*bv2 + a13*bv3
				}
			}
			for ; kk < k; kk++ {
				av0, av1 := arow0[kk], arow1[kk]
				brow := b[kk*n+j0:][:len(orow0)]
				for j := range orow0 {
					orow0[j] += av0 * brow[j]
					orow1[j] += av1 * brow[j]
				}
			}
		}
		for ; i < hi; i++ {
			arow := a[i*k : (i+1)*k]
			orow := out[i*n+j0 : i*n+j1]
			kk := 0
			for ; kk+4 <= k; kk += 4 {
				a0, a1, a2, a3 := arow[kk], arow[kk+1], arow[kk+2], arow[kk+3]
				b0 := b[kk*n+j0:][:len(orow)]
				b1 := b[(kk+1)*n+j0:][:len(orow)]
				b2 := b[(kk+2)*n+j0:][:len(orow)]
				b3 := b[(kk+3)*n+j0:][:len(orow)]
				for j := range orow {
					orow[j] = orow[j] + a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j]
				}
			}
			for ; kk < k; kk++ {
				av := arow[kk]
				brow := b[kk*n+j0:][:len(orow)]
				for j := range orow {
					orow[j] += av * brow[j]
				}
			}
		}
	}
}

// MatMulT returns a × bᵀ for 2D tensors: (m,k) × (n,k)ᵀ → (m,n). Used by
// backward passes to avoid materializing transposes.
func MatMulT(a, b *Tensor) *Tensor {
	out := New(a.shape[0], b.shape[0])
	MatMulTInto(out, a, b)
	return out
}

// MatMulTInto computes out = a × bᵀ, reusing out's storage. Each output
// element is a dot product folded as four stride-4 partial sums (s0..s3,
// then s0+s1+s2+s3 plus a scalar tail) — the fold the original kernel
// used, kept so results stay bit-identical.
func MatMulTInto(out, a, b *Tensor) {
	if len(a.shape) != 2 || len(b.shape) != 2 {
		panic("tensor: MatMulT requires 2D operands")
	}
	m, k := a.shape[0], a.shape[1]
	n, k2 := b.shape[0], b.shape[1]
	if k != k2 {
		panic("tensor: MatMulT inner dims differ")
	}
	if out.shape[0] != m || out.shape[1] != n {
		panic("tensor: MatMulTInto output shape mismatch")
	}
	aD, bD, oD := a.Data, b.Data, out.Data
	parallelRows(m, 2*m*k*n, func(lo, hi int) {
		i := lo
		for ; i+2 <= hi; i += 2 {
			arow0 := aD[i*k:][:k]
			arow1 := aD[(i+1)*k:][:k]
			orow0 := oD[i*n : (i+1)*n]
			orow1 := oD[(i+1)*n : (i+2)*n]
			for j := 0; j < n; j++ {
				brow := bD[j*k:][:k]
				var s00, s01, s02, s03 float32
				var s10, s11, s12, s13 float32
				kk := 0
				for ; kk+4 <= k; kk += 4 {
					bv0, bv1, bv2, bv3 := brow[kk], brow[kk+1], brow[kk+2], brow[kk+3]
					s00 += arow0[kk] * bv0
					s01 += arow0[kk+1] * bv1
					s02 += arow0[kk+2] * bv2
					s03 += arow0[kk+3] * bv3
					s10 += arow1[kk] * bv0
					s11 += arow1[kk+1] * bv1
					s12 += arow1[kk+2] * bv2
					s13 += arow1[kk+3] * bv3
				}
				s0 := s00 + s01 + s02 + s03
				s1 := s10 + s11 + s12 + s13
				for ; kk < k; kk++ {
					bv := brow[kk]
					s0 += arow0[kk] * bv
					s1 += arow1[kk] * bv
				}
				orow0[j] = s0
				orow1[j] = s1
			}
		}
		for ; i < hi; i++ {
			arow := aD[i*k:][:k]
			orow := oD[i*n : (i+1)*n]
			for j := 0; j < n; j++ {
				brow := bD[j*k:][:k]
				var s0, s1, s2, s3 float32
				kk := 0
				for ; kk+4 <= k; kk += 4 {
					s0 += arow[kk] * brow[kk]
					s1 += arow[kk+1] * brow[kk+1]
					s2 += arow[kk+2] * brow[kk+2]
					s3 += arow[kk+3] * brow[kk+3]
				}
				s := s0 + s1 + s2 + s3
				for ; kk < k; kk++ {
					s += arow[kk] * brow[kk]
				}
				orow[j] = s
			}
		}
	})
}

// TMatMul returns aᵀ × b: (k,m)ᵀ × (k,n) → (m,n). Used for weight
// gradients (xᵀ · dy).
func TMatMul(a, b *Tensor) *Tensor {
	out := New(a.shape[1], b.shape[1])
	TMatMulInto(out, a, b)
	return out
}

// TMatMulInto computes out = aᵀ × b, reusing out's storage: a zeroed out
// plus TMatMulAccum over every data row.
func TMatMulInto(out, a, b *Tensor) {
	if len(a.shape) != 2 || len(b.shape) != 2 {
		panic("tensor: TMatMul requires 2D operands")
	}
	if len(out.shape) != 2 || out.shape[0] != a.shape[1] || out.shape[1] != b.shape[1] {
		panic("tensor: TMatMulInto output shape mismatch")
	}
	out.Zero()
	TMatMulAccum(out.Data, a, b, 0, a.shape[0])
}

// TMatMulAccum folds data rows [lo,hi) of a (k,m) and b (k,n) into the
// row-major (m,n) product dst, continuing whatever partial dst already
// carries: dst += a[lo:hi]ᵀ × b[lo:hi]. It is the weight-gradient
// accumulate entry (dW += xᵀ·dy over a row range): chaining calls over
// consecutive row ranges folds every element in ascending row order, so
// the chain equals one call over their union — and TMatMulInto from zero —
// bit for bit.
func TMatMulAccum(dst []float32, a, b *Tensor, lo, hi int) {
	if len(a.shape) != 2 || len(b.shape) != 2 {
		panic("tensor: TMatMul requires 2D operands")
	}
	k, m := a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 {
		panic("tensor: TMatMul inner dims differ")
	}
	if len(dst) != m*n || lo < 0 || hi > k || lo > hi {
		panic("tensor: TMatMulAccum shape or row range mismatch")
	}
	aD, bD := a.Data[lo*m:hi*m], b.Data[lo*n:hi*n]
	parallelRows(m, 2*m*(hi-lo)*n, func(olo, ohi int) {
		tmatmulRows(dst, aD, bD, olo, ohi, hi-lo, m, n)
	})
}

// tmatmulRows computes rows [lo,hi) of out += aᵀ×b; a values are gathered
// with stride m, b rows stream like matmulRows.
func tmatmulRows(out, a, b []float32, lo, hi, k, m, n int) {
	for j0 := 0; j0 < n; j0 += nBlock {
		j1 := min(j0+nBlock, n)
		i := lo
		for ; i+2 <= hi; i += 2 {
			orow0 := out[i*n+j0 : i*n+j1]
			orow1 := out[(i+1)*n+j0:][:len(orow0)]
			kk := 0
			for ; kk+4 <= k; kk += 4 {
				a00, a10 := a[kk*m+i], a[kk*m+i+1]
				a01, a11 := a[(kk+1)*m+i], a[(kk+1)*m+i+1]
				a02, a12 := a[(kk+2)*m+i], a[(kk+2)*m+i+1]
				a03, a13 := a[(kk+3)*m+i], a[(kk+3)*m+i+1]
				b0 := b[kk*n+j0:][:len(orow0)]
				b1 := b[(kk+1)*n+j0:][:len(orow0)]
				b2 := b[(kk+2)*n+j0:][:len(orow0)]
				b3 := b[(kk+3)*n+j0:][:len(orow0)]
				for j := range orow0 {
					bv0, bv1, bv2, bv3 := b0[j], b1[j], b2[j], b3[j]
					orow0[j] = orow0[j] + a00*bv0 + a01*bv1 + a02*bv2 + a03*bv3
					orow1[j] = orow1[j] + a10*bv0 + a11*bv1 + a12*bv2 + a13*bv3
				}
			}
			for ; kk < k; kk++ {
				av0, av1 := a[kk*m+i], a[kk*m+i+1]
				brow := b[kk*n+j0:][:len(orow0)]
				for j := range orow0 {
					orow0[j] += av0 * brow[j]
					orow1[j] += av1 * brow[j]
				}
			}
		}
		for ; i < hi; i++ {
			orow := out[i*n+j0 : i*n+j1]
			kk := 0
			for ; kk+4 <= k; kk += 4 {
				a0, a1 := a[kk*m+i], a[(kk+1)*m+i]
				a2, a3 := a[(kk+2)*m+i], a[(kk+3)*m+i]
				b0 := b[kk*n+j0:][:len(orow)]
				b1 := b[(kk+1)*n+j0:][:len(orow)]
				b2 := b[(kk+2)*n+j0:][:len(orow)]
				b3 := b[(kk+3)*n+j0:][:len(orow)]
				for j := range orow {
					orow[j] = orow[j] + a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j]
				}
			}
			for ; kk < k; kk++ {
				av := a[kk*m+i]
				brow := b[kk*n+j0:][:len(orow)]
				for j := range orow {
					orow[j] += av * brow[j]
				}
			}
		}
	}
}
