// Package vek is the shared vector-kernel layer under every model in
// internal/ml: tight, allocation-free float64 primitives (dot products,
// saxpy, matrix–vector products) plus a reusable scratch-buffer arena.
//
// The kernels are written for the Go compiler's strengths: 4-way unrolled
// loops break the loop-carried dependency chain of a naive accumulation
// (the dominant cost of Dot) and give the bounds-check eliminator simple
// induction variables. Everything is pure Go — no assembly, no unsafe —
// so results are deterministic across platforms for a fixed input order.
//
// Note the unrolled kernels fix a particular floating-point association
// order (four partial sums, combined at the end). That order is part of
// the training fast path's determinism contract: all callers see the same
// sums on every run, but the sums differ in ulps from a naive
// left-to-right loop.
package vek

// Dot returns the inner product of a and b. len(b) must be >= len(a);
// extra elements of b are ignored (slice views over flat parameter
// buffers rely on this).
func Dot(a, b []float64) float64 {
	n := len(a)
	b = b[:n]
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= n; i += 4 {
		s0 += a[i] * b[i]
		s1 += a[i+1] * b[i+1]
		s2 += a[i+2] * b[i+2]
		s3 += a[i+3] * b[i+3]
	}
	for ; i < n; i++ {
		s0 += a[i] * b[i]
	}
	return (s0 + s1) + (s2 + s3)
}

// Axpy computes y += alpha*x elementwise over len(x) elements.
func Axpy(alpha float64, x, y []float64) {
	n := len(x)
	y = y[:n]
	i := 0
	for ; i+4 <= n; i += 4 {
		y[i] += alpha * x[i]
		y[i+1] += alpha * x[i+1]
		y[i+2] += alpha * x[i+2]
		y[i+3] += alpha * x[i+3]
	}
	for ; i < n; i++ {
		y[i] += alpha * x[i]
	}
}

// Add computes y += x elementwise.
func Add(x, y []float64) {
	n := len(x)
	y = y[:n]
	i := 0
	for ; i+4 <= n; i += 4 {
		y[i] += x[i]
		y[i+1] += x[i+1]
		y[i+2] += x[i+2]
		y[i+3] += x[i+3]
	}
	for ; i < n; i++ {
		y[i] += x[i]
	}
}

// Scale multiplies x by alpha in place.
func Scale(alpha float64, x []float64) {
	for i := range x {
		x[i] *= alpha
	}
}

// Zero clears x in place.
func Zero(x []float64) {
	for i := range x {
		x[i] = 0
	}
}

// Gemv computes y = A·x for a row-major rows×cols matrix A. y must have
// length rows; x must have at least cols elements.
func Gemv(y, a, x []float64, rows, cols int) {
	for r := 0; r < rows; r++ {
		y[r] = Dot(a[r*cols:r*cols+cols], x)
	}
}

// GemvTAdd computes y += Aᵀ·x for a row-major rows×cols matrix A
// (y has cols elements, x has rows elements). Implemented as a sum of
// scaled rows so the inner loop stays contiguous.
func GemvTAdd(y, a, x []float64, rows, cols int) {
	for r := 0; r < rows; r++ {
		if xr := x[r]; xr != 0 {
			Axpy(xr, a[r*cols:r*cols+cols], y)
		}
	}
}

// Arena hands out float64 scratch slices carved from one growing backing
// buffer, so a hot loop's per-step temporaries cost zero allocations after
// the first iteration. Take returns zeroed slices; Reset recycles the
// whole arena without clearing (the next Take re-zeroes its slice).
//
// An Arena is not safe for concurrent use; give each goroutine its own
// (see the sync.Pool wiring in internal/ml).
type Arena struct {
	buf []float64
	off int
}

// Take returns a zeroed scratch slice of length n valid until Reset.
func (ar *Arena) Take(n int) []float64 {
	if ar.off+n > len(ar.buf) {
		grown := make([]float64, max(2*len(ar.buf), ar.off+n))
		// Abandon the old buffer: outstanding slices stay valid, new
		// ones come from the fresh allocation.
		copy(grown, ar.buf[:ar.off])
		ar.buf = grown
	}
	s := ar.buf[ar.off : ar.off+n : ar.off+n]
	ar.off += n
	Zero(s)
	return s
}

// Reset recycles every slice handed out since the last Reset. Slices
// returned by earlier Takes must no longer be used.
func (ar *Arena) Reset() { ar.off = 0 }
