package vek

// Blocked/tiled matrix–matrix kernels. Like the rest of vek these are
// pure Go, and like Dot they fix a particular floating-point association
// order as part of the determinism contract:
//
//	C[i][j] += A[i][0]*B[0][j] + A[i][1]*B[1][j] + ...   (k ascending)
//
// Each output element is accumulated left-to-right over k into a single
// accumulator, exactly the order GemvTAdd produces when applied row by
// row. The register tiling below changes *which* elements are computed
// together (4 rows of C share one load of a B row), never the order any
// one element's partial sums combine in — so Gemm results are
// bit-identical for every (m, n, k) shape and identical to a per-row
// GemvTAdd sweep whenever A has no exact zeros (GemvTAdd skips zero
// multipliers; Gemm adds the signed-zero product, which differs only if
// an accumulator is exactly -0 or B holds non-finite values).
//
// The batched-LSTM wavefront (internal/ml) is the primary caller: its
// recurrent step is Z += H·Wh with H rows packed per active sequence.

// Gemm computes C += A·B for row-major matrices: C is m×n, A is m×k,
// B is k×n. Rows are processed in tiles of four so each B row is loaded
// once per tile instead of once per row; within a tile the four C-row
// accumulations are independent.
func Gemm(c, a, b []float64, m, n, k int) {
	if m <= 0 || n <= 0 || k <= 0 {
		return
	}
	i := 0
	for ; i+4 <= m; i += 4 {
		gemm4(c[i*n:], a[i*k:], b, n, k)
	}
	for ; i < m; i++ {
		gemm1(c[i*n:i*n+n], a[i*k:i*k+k], b, n, k)
	}
}

// gemm4 computes four consecutive C rows: C[0..3] += A[0..3]·B.
// k is the shared dimension; each iteration streams one B row across all
// four accum rows, so B traffic is amortized 4×.
func gemm4(c, a, b []float64, n, k int) {
	c0 := c[0*n : 0*n+n]
	c1 := c[1*n : 1*n+n]
	c2 := c[2*n : 2*n+n]
	c3 := c[3*n : 3*n+n]
	for p := 0; p < k; p++ {
		a0 := a[0*k+p]
		a1 := a[1*k+p]
		a2 := a[2*k+p]
		a3 := a[3*k+p]
		bp := b[p*n : p*n+n]
		j := 0
		for ; j+2 <= n; j += 2 {
			b0, b1 := bp[j], bp[j+1]
			c0[j] += a0 * b0
			c0[j+1] += a0 * b1
			c1[j] += a1 * b0
			c1[j+1] += a1 * b1
			c2[j] += a2 * b0
			c2[j+1] += a2 * b1
			c3[j] += a3 * b0
			c3[j+1] += a3 * b1
		}
		for ; j < n; j++ {
			b0 := bp[j]
			c0[j] += a0 * b0
			c1[j] += a1 * b0
			c2[j] += a2 * b0
			c3[j] += a3 * b0
		}
	}
}

// gemm1 computes one C row: C += a·B (a is one A row of length k).
func gemm1(c, a, b []float64, n, k int) {
	for p := 0; p < k; p++ {
		Axpy(a[p], b[p*n:p*n+n], c)
	}
}
