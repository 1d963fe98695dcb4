package vek

import (
	"math"
	"testing"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestDotMatchesNaive(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 16, 31, 257} {
		a := make([]float64, n)
		b := make([]float64, n)
		var want float64
		for i := 0; i < n; i++ {
			a[i] = float64(i%13) - 6
			b[i] = 0.5 * float64(i%7)
			want += a[i] * b[i]
		}
		if got := Dot(a, b); math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
			t.Fatalf("n=%d: Dot=%g want %g", n, got, want)
		}
	}
}

func TestDotShortA(t *testing.T) {
	a := []float64{1, 2}
	b := []float64{3, 4, 100, 100}
	if got := Dot(a, b); !almost(got, 11) {
		t.Fatalf("Dot over short a = %g, want 11", got)
	}
}

func TestAxpyAddScaleZero(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{10, 10, 10, 10, 10}
	Axpy(2, x, y)
	for i := range y {
		if want := 10 + 2*x[i]; !almost(y[i], want) {
			t.Fatalf("Axpy y[%d]=%g want %g", i, y[i], want)
		}
	}
	Add(x, y)
	if !almost(y[0], 13) {
		t.Fatalf("Add y[0]=%g want 13", y[0])
	}
	Scale(0.5, y)
	if !almost(y[0], 6.5) {
		t.Fatalf("Scale y[0]=%g want 6.5", y[0])
	}
	Zero(y)
	for i := range y {
		if y[i] != 0 {
			t.Fatalf("Zero left y[%d]=%g", i, y[i])
		}
	}
}

func TestGemvFamily(t *testing.T) {
	// A = [[1 2 3],[4 5 6]] (2x3), x = [1 1 1], xt = [1 2]
	a := []float64{1, 2, 3, 4, 5, 6}
	x := []float64{1, 1, 1}
	y := make([]float64, 2)
	Gemv(y, a, x, 2, 3)
	if !almost(y[0], 6) || !almost(y[1], 15) {
		t.Fatalf("Gemv = %v, want [6 15]", y)
	}
	yt := make([]float64, 3)
	GemvTAdd(yt, a, []float64{1, 2}, 2, 3)
	// col sums weighted: [1+8, 2+10, 3+12]
	if !almost(yt[0], 9) || !almost(yt[1], 12) || !almost(yt[2], 15) {
		t.Fatalf("GemvTAdd = %v, want [9 12 15]", yt)
	}
}

func TestArenaReuseAndGrowth(t *testing.T) {
	var ar Arena
	a := ar.Take(4)
	b := ar.Take(8)
	if len(a) != 4 || len(b) != 8 {
		t.Fatalf("Take lengths: %d %d", len(a), len(b))
	}
	for i := range a {
		a[i] = 1
	}
	for i := range b {
		b[i] = 2
	}
	// Capacity is clamped: writing through a must not alias b.
	if b[0] != 2 {
		t.Fatalf("arena slices alias: b[0]=%g", b[0])
	}
	ar.Reset()
	c := ar.Take(4)
	for i := range c {
		if c[i] != 0 {
			t.Fatalf("Take after Reset not zeroed: c[%d]=%g", i, c[i])
		}
	}
	// Growth mid-cycle keeps outstanding slices valid.
	ar.Reset()
	d := ar.Take(8)
	d[7] = 42
	e := ar.Take(1 << 12)
	if d[7] != 42 {
		t.Fatalf("growth invalidated outstanding slice: d[7]=%g", d[7])
	}
	if len(e) != 1<<12 {
		t.Fatalf("grown Take length %d", len(e))
	}
}

func TestArenaNoAllocSteadyState(t *testing.T) {
	var ar Arena
	warm := func() {
		ar.Reset()
		_ = ar.Take(64)
		_ = ar.Take(128)
	}
	warm()
	allocs := testing.AllocsPerRun(100, warm)
	if allocs != 0 {
		t.Fatalf("arena steady state allocates: %g allocs/op", allocs)
	}
}
