package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func near(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestWMAPE(t *testing.T) {
	if w := WMAPE([]float64{10, 20}, []float64{9, 22}); !near(w, 0.1, 1e-12) {
		t.Errorf("WMAPE = %f, want 0.1", w)
	}
	if !math.IsNaN(WMAPE(nil, nil)) {
		t.Error("empty WMAPE should be NaN")
	}
	if !math.IsNaN(WMAPE([]float64{0}, []float64{1})) {
		t.Error("zero-denominator WMAPE should be NaN")
	}
}

func TestMAEAndMean(t *testing.T) {
	if m := MAE([]float64{1, 2, 3}, []float64{2, 2, 5}); !near(m, 1, 1e-12) {
		t.Errorf("MAE = %f", m)
	}
	if m := Mean([]float64{2, 4}); m != 3 {
		t.Errorf("Mean = %f", m)
	}
}

func TestPrecisionRecall(t *testing.T) {
	// truth: 1 1 0 2 0; pred: 1 0 0 1 2
	// tp=1 (i0); fp: i3(pred1,truth2), i4(pred2,truth0) => 2; fn: i1, i3 => 2
	p, r := PrecisionRecall([]int{1, 1, 0, 2, 0}, []int{1, 0, 0, 1, 2})
	if !near(p, 1.0/3, 1e-12) {
		t.Errorf("precision = %f", p)
	}
	if !near(r, 1.0/3, 1e-12) {
		t.Errorf("recall = %f", r)
	}
	// Perfect predictions.
	p, r = PrecisionRecall([]int{1, 0, 2}, []int{1, 0, 2})
	if p != 1 || r != 1 {
		t.Errorf("perfect p/r = %f/%f", p, r)
	}
}

func TestDistancesZeroForIdentical(t *testing.T) {
	p := []float64{0.25, 0.25, 0.5}
	for name, f := range map[string]func(a, b []float64) (float64, error){
		"js": JensenShannon, "renyi": RenyiDefault, "bhatt": Bhattacharyya,
		"cos": Cosine, "euclid": Euclidean, "tv": Variational,
	} {
		d, err := f(p, p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !near(d, 0, 1e-6) {
			t.Errorf("%s(p,p) = %g, want ~0", name, d)
		}
	}
}

func TestDistancesGrowWithDivergence(t *testing.T) {
	p := []float64{0.5, 0.5, 0}
	close := []float64{0.45, 0.55, 0}
	far := []float64{0.05, 0.05, 0.9}
	for name, f := range map[string]func(a, b []float64) (float64, error){
		"js": JensenShannon, "renyi": RenyiDefault, "bhatt": Bhattacharyya,
		"cos": Cosine, "euclid": Euclidean, "tv": Variational,
	} {
		dc, _ := f(p, close)
		df, _ := f(p, far)
		if dc >= df {
			t.Errorf("%s: close %g !< far %g", name, dc, df)
		}
	}
}

func TestDistancesErrorOnShapeMismatch(t *testing.T) {
	if _, err := JensenShannon([]float64{1}, []float64{0.5, 0.5}); err == nil {
		t.Error("shape mismatch accepted")
	}
}

func TestVariationalProperty(t *testing.T) {
	// TV distance between distributions is bounded by 2 and symmetric.
	f := func(a, b uint8) bool {
		p := []float64{float64(a%7) + 1, 3, 2}
		q := []float64{float64(b%5) + 1, 1, 4}
		var sp, sq float64
		for i := range p {
			sp += p[i]
			sq += q[i]
		}
		for i := range p {
			p[i] /= sp
			q[i] /= sq
		}
		d1, _ := Variational(p, q)
		d2, _ := Variational(q, p)
		return near(d1, d2, 1e-12) && d1 >= 0 && d1 <= 2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestJensenShannonBound(t *testing.T) {
	// JS divergence (base e) is bounded by ln 2.
	p := []float64{1, 0, 0}
	q := []float64{0, 0, 1}
	d, _ := JensenShannon(p, q)
	if d > math.Ln2+1e-9 {
		t.Errorf("JS = %f exceeds ln2", d)
	}
	if d < math.Ln2-1e-3 {
		t.Errorf("JS of disjoint = %f, want ~ln2", d)
	}
}
