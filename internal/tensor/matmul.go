package tensor

// The matmul family: MatMul (a×b), MatMulT (a×bᵀ), TMatMul (aᵀ×b), each
// with an Into variant that reuses caller storage. All three share the
// banded worker pool in pool.go and a two-level kernel design.
//
// The Go loops in this file (accumRowsGeneric, dotRowsGeneric) are the
// numerics contract, the whole implementation wherever there is no
// assembly (every GOARCH but amd64, amd64 CPUs without AVX2, and any build
// with the purego tag), and the edge path everywhere else. MatMul and
// TMatMul accumulate every output element in the left-to-right
// kk-ascending order of the naive loop, one rounded multiply then one
// rounded add per term; MatMulT folds each dot product as four stride-4
// partial sums, ((s0+s1)+s2)+s3, then its k%4 tail one term at a time.
// The register tile only reorders *loads*, never the floating-point fold,
// so results are bit-identical across band splits.
//
// Three leaf widths share that contract. On amd64 with AVX2
// (matmul_amd64.go/.s) whole tiles go to assembly leaves — 4×16 accumulate
// and 4×4 dot tiles, and with AVX-512F 4×32 and 4×8 tiles in front of
// them — that run the same fold in vector lanes: a lane is one output
// element (or one of a dot's four partials), each term is one VMULPS then
// one VADDPS — never a fused multiply-add, which the amd64 Go compiler
// does not emit either — so per lane a leaf performs the operations of the
// Go loop on the same operands, and every golden holds on every path. The
// one latitude is the payload of a NaN produced from two NaN operands (x86
// keeps the first source's, and the compiler may order them either way);
// whether an element is NaN never differs. A leaf is one tile — at most k
// iterations of straight-line vector code — and the loops over tiles stay
// in Go, so preemption and GC stop-the-world latency are what they were.
//
// There is deliberately no skip of zero multiplicands: 0 × NaN must
// produce NaN so overflowed fp16 gradients reach the ScanBad validation
// scans instead of being silently zeroed.

// nBlock is the Go loops' output-column tile width: 4 b-rows × 512 columns
// ≈ 8 KiB of streamed panel per pass, comfortably inside L1.
const nBlock = 512

// dims2 returns t's (rows, cols). It panics unless t is 2-D and t.Data
// holds exactly that many elements: Data is an exported field, and the
// assembly leaves have no bounds checks of their own.
func dims2(t *Tensor, op string) (rows, cols int) {
	if len(t.shape) != 2 || len(t.Data) != t.shape[0]*t.shape[1] {
		panic("tensor: " + op + " requires 2D operands whose Data matches their shape")
	}
	return t.shape[0], t.shape[1]
}

// MatMul returns a × b for 2D tensors: (m,k) × (k,n) → (m,n).
func MatMul(a, b *Tensor) *Tensor {
	out := New(a.Dim(0), b.Dim(1))
	MatMulInto(out, a, b)
	return out
}

// MatMulInto computes out = a × b, reusing out's storage.
func MatMulInto(out, a, b *Tensor) {
	m, k := dims2(a, "MatMul")
	k2, n := dims2(b, "MatMul")
	if k != k2 {
		panic("tensor: MatMul inner dims differ")
	}
	if om, on := dims2(out, "MatMul"); om != m || on != n {
		panic("tensor: MatMulInto output shape mismatch")
	}
	out.Zero()
	parallelRows(m, 2*m*k*n, &bandCall{op: opAccum, out: out.Data, a: a.Data, b: b.Data, k: k, n: n, ars: k, aks: 1})
}

// accumRowsGeneric computes rows [lo,hi) × columns [j0,j1) of the (·,n)
// matrix out += A×b, where A[i][kk] = a[i*ars+kk*aks] — a itself for MatMul
// (ars=k, aks=1), its transpose for TMatMul (ars=1, aks=m) — and b is
// (k,n). A 2-row × 4-k register tile (each loaded b value feeds two output
// rows; each output element takes four updates per pass) runs inside an
// n-block loop that keeps the streamed b panel inside L1/L2. The
// `[:len(orow0)]` reslices are bounds-check-elimination hints: they let
// the compiler prove every indexed slice shares the loop bound, emptying
// the inner loop of checks.
func accumRowsGeneric(out, a, b []float32, lo, hi, j0, j1, k, n, ars, aks int) {
	for jb := j0; jb < j1; jb += nBlock {
		je := min(jb+nBlock, j1)
		i := lo
		for ; i+2 <= hi; i += 2 {
			a0, a1 := i*ars, (i+1)*ars
			orow0 := out[i*n+jb : i*n+je]
			orow1 := out[(i+1)*n+jb:][:len(orow0)]
			kk := 0
			for ; kk+4 <= k; kk += 4 {
				a00, a01, a02, a03 := a[a0+kk*aks], a[a0+(kk+1)*aks], a[a0+(kk+2)*aks], a[a0+(kk+3)*aks]
				a10, a11, a12, a13 := a[a1+kk*aks], a[a1+(kk+1)*aks], a[a1+(kk+2)*aks], a[a1+(kk+3)*aks]
				b0 := b[kk*n+jb:][:len(orow0)]
				b1 := b[(kk+1)*n+jb:][:len(orow0)]
				b2 := b[(kk+2)*n+jb:][:len(orow0)]
				b3 := b[(kk+3)*n+jb:][:len(orow0)]
				for j := range orow0 {
					bv0, bv1, bv2, bv3 := b0[j], b1[j], b2[j], b3[j]
					orow0[j] = orow0[j] + a00*bv0 + a01*bv1 + a02*bv2 + a03*bv3
					orow1[j] = orow1[j] + a10*bv0 + a11*bv1 + a12*bv2 + a13*bv3
				}
			}
			for ; kk < k; kk++ {
				av0, av1 := a[a0+kk*aks], a[a1+kk*aks]
				brow := b[kk*n+jb:][:len(orow0)]
				for j := range orow0 {
					orow0[j] += av0 * brow[j]
					orow1[j] += av1 * brow[j]
				}
			}
		}
		for ; i < hi; i++ {
			a0 := i * ars
			orow := out[i*n+jb : i*n+je]
			kk := 0
			for ; kk+4 <= k; kk += 4 {
				a00, a01, a02, a03 := a[a0+kk*aks], a[a0+(kk+1)*aks], a[a0+(kk+2)*aks], a[a0+(kk+3)*aks]
				b0 := b[kk*n+jb:][:len(orow)]
				b1 := b[(kk+1)*n+jb:][:len(orow)]
				b2 := b[(kk+2)*n+jb:][:len(orow)]
				b3 := b[(kk+3)*n+jb:][:len(orow)]
				for j := range orow {
					orow[j] = orow[j] + a00*b0[j] + a01*b1[j] + a02*b2[j] + a03*b3[j]
				}
			}
			for ; kk < k; kk++ {
				av := a[a0+kk*aks]
				brow := b[kk*n+jb:][:len(orow)]
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
	out := New(a.Dim(0), b.Dim(0))
	MatMulTInto(out, a, b)
	return out
}

// MatMulTInto computes out = a × bᵀ, reusing out's storage. Each output
// element is a dot product folded as four stride-4 partial sums (s0..s3,
// then s0+s1+s2+s3 plus a scalar tail) — the fold the original kernel
// used, kept so results stay bit-identical.
func MatMulTInto(out, a, b *Tensor) {
	m, k := dims2(a, "MatMulT")
	n, k2 := dims2(b, "MatMulT")
	if k != k2 {
		panic("tensor: MatMulT inner dims differ")
	}
	if om, on := dims2(out, "MatMulT"); om != m || on != n {
		panic("tensor: MatMulTInto output shape mismatch")
	}
	parallelRows(m, 2*m*k*n, &bandCall{op: opDot, out: out.Data, a: a.Data, b: b.Data, k: k, n: n})
}

// dotRowsGeneric computes rows [lo,hi) × columns [j0,j1) of the (·,n)
// matrix out = a×bᵀ for row-major a (·,k) and b (n,k), two output rows per
// pass so each loaded b value feeds both.
func dotRowsGeneric(out, a, b []float32, lo, hi, j0, j1, k, n int) {
	i := lo
	for ; i+2 <= hi; i += 2 {
		arow0 := a[i*k:][:k]
		arow1 := a[(i+1)*k:][:k]
		orow0 := out[i*n : (i+1)*n]
		orow1 := out[(i+1)*n : (i+2)*n]
		for j := j0; j < j1; j++ {
			brow := b[j*k:][:k]
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
		arow := a[i*k:][:k]
		orow := out[i*n : (i+1)*n]
		for j := j0; j < j1; j++ {
			brow := b[j*k:][:k]
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
}

// TMatMul returns aᵀ × b: (k,m)ᵀ × (k,n) → (m,n). Used for weight
// gradients (xᵀ · dy).
func TMatMul(a, b *Tensor) *Tensor {
	out := New(a.Dim(1), b.Dim(1))
	TMatMulInto(out, a, b)
	return out
}

// TMatMulInto computes out = aᵀ × b, reusing out's storage: a zeroed out
// plus TMatMulAccum over every data row.
func TMatMulInto(out, a, b *Tensor) {
	k, m := dims2(a, "TMatMul")
	_, n := dims2(b, "TMatMul")
	if om, on := dims2(out, "TMatMul"); om != m || on != n {
		panic("tensor: TMatMulInto output shape mismatch")
	}
	out.Zero()
	TMatMulAccum(out.Data, a, b, 0, k)
}

// TMatMulAccum folds data rows [lo,hi) of a (k,m) and b (k,n) into the
// row-major (m,n) product dst, continuing whatever partial dst already
// carries: dst += a[lo:hi]ᵀ × b[lo:hi]. It is the weight-gradient
// accumulate entry (dW += xᵀ·dy over a row range): chaining calls over
// consecutive row ranges folds every element in ascending row order, so
// the chain equals one call over their union — and TMatMulInto from zero —
// bit for bit.
func TMatMulAccum(dst []float32, a, b *Tensor, lo, hi int) {
	k, m := dims2(a, "TMatMul")
	k2, n := dims2(b, "TMatMul")
	if k != k2 {
		panic("tensor: TMatMul inner dims differ")
	}
	if len(dst) != m*n || lo < 0 || hi > k || lo > hi {
		panic("tensor: TMatMulAccum shape or row range mismatch")
	}
	parallelRows(m, 2*m*(hi-lo)*n, &bandCall{op: opAccum, out: dst, a: a.Data[lo*m : hi*m], b: b.Data[lo*n : hi*n], k: hi - lo, n: n, ars: 1, aks: m})
}
