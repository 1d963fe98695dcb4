package vek

import (
	"math"
	"math/rand"
	"testing"
)

// refGemm is the contract reference: per element, single accumulator,
// k ascending. Gemm must match it bitwise for every shape.
func refGemm(c, a, b []float64, m, n, k int) {
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			acc := c[i*n+j]
			for p := 0; p < k; p++ {
				acc += a[i*k+p] * b[p*n+j]
			}
			c[i*n+j] = acc
		}
	}
}

func randSlice(rng *rand.Rand, n int, avoidZero bool) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = rng.NormFloat64()
		if avoidZero && s[i] == 0 {
			s[i] = 1e-9
		}
	}
	return s
}

func TestGemmMatchesReferenceBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	shapes := []struct{ m, n, k int }{
		{0, 5, 5}, {5, 0, 5}, {5, 5, 0}, // empty
		{1, 1, 1}, {1, 17, 3}, {17, 1, 3}, // 1×N, N×1
		{4, 8, 4}, {8, 8, 8}, // tile multiples
		{5, 7, 3}, {6, 9, 11}, {13, 5, 28}, // non-multiples of the 4-row tile
		{3, 112, 28}, {9, 112, 28}, // the LSTM wavefront shape
	}
	for _, sh := range shapes {
		a := randSlice(rng, sh.m*sh.k, false)
		b := randSlice(rng, sh.k*sh.n, false)
		got := randSlice(rng, sh.m*sh.n, false)
		want := append([]float64(nil), got...)
		Gemm(got, a, b, sh.m, sh.n, sh.k)
		refGemm(want, a, b, sh.m, sh.n, sh.k)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("shape %dx%dx%d: C[%d] = %x, want %x",
					sh.m, sh.n, sh.k, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
			}
		}
	}
}

// The batched LSTM depends on Gemm reproducing a per-row GemvTAdd sweep
// bit-for-bit when A has no exact zeros (GemvTAdd skips zero rows; with
// none present the accumulation orders coincide).
func TestGemmMatchesGemvTAddRows(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, sh := range []struct{ m, n, k int }{{1, 112, 28}, {5, 112, 28}, {12, 33, 7}} {
		a := randSlice(rng, sh.m*sh.k, true)
		b := randSlice(rng, sh.k*sh.n, false)
		got := randSlice(rng, sh.m*sh.n, false)
		want := append([]float64(nil), got...)
		Gemm(got, a, b, sh.m, sh.n, sh.k)
		for i := 0; i < sh.m; i++ {
			// GemvTAdd(y, B, x): y += Bᵀ·x with B laid out k rows × n cols,
			// i.e. one C row with A row i as x.
			GemvTAdd(want[i*sh.n:(i+1)*sh.n], b, a[i*sh.k:(i+1)*sh.k], sh.k, sh.n)
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("shape %dx%dx%d: C[%d] = %v, want %v", sh.m, sh.n, sh.k, i, got[i], want[i])
			}
		}
	}
}
