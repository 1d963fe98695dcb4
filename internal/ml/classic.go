package ml

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// --- k-nearest neighbors ---

// KNN is a k-nearest-neighbor regressor and classifier.
type KNN struct {
	K      int
	X      [][]float64
	Y      []float64
	Labels []int
}

// FitKNNRegressor memorizes the training set.
func FitKNNRegressor(X [][]float64, y []float64, k int) *KNN {
	return &KNN{K: k, X: X, Y: y}
}

// FitKNNClassifier memorizes the training set with labels.
func FitKNNClassifier(X [][]float64, labels []int, k int) *KNN {
	return &KNN{K: k, X: X, Labels: labels}
}

func (m *KNN) neighbors(x []float64) []int {
	type dv struct {
		d float64
		i int
	}
	ds := make([]dv, len(m.X))
	for i, xi := range m.X {
		var d float64
		for j := range x {
			diff := x[j] - xi[j]
			d += diff * diff
		}
		ds[i] = dv{d, i}
	}
	sort.Slice(ds, func(a, b int) bool {
		if ds[a].d != ds[b].d {
			return ds[a].d < ds[b].d
		}
		return ds[a].i < ds[b].i
	})
	k := m.K
	if k > len(ds) {
		k = len(ds)
	}
	out := make([]int, k)
	for i := 0; i < k; i++ {
		out[i] = ds[i].i
	}
	return out
}

// Predict averages the k nearest targets.
func (m *KNN) Predict(x []float64) float64 {
	nb := m.neighbors(x)
	var s float64
	for _, i := range nb {
		s += m.Y[i]
	}
	return s / float64(len(nb))
}

// PredictClass majority-votes the k nearest labels.
func (m *KNN) PredictClass(x []float64) int {
	votes := map[int]int{}
	for _, i := range m.neighbors(x) {
		votes[m.Labels[i]]++
	}
	best, bestN := 0, -1
	for _, c := range distinctLabels(m.Labels) {
		if votes[c] > bestN {
			bestN = votes[c]
			best = c
		}
	}
	return best
}

// --- linear SVM (Pegasos) ---

// SVM is a linear support-vector classifier trained with the Pegasos
// subgradient method, wrapped one-vs-rest for multi-class problems — the
// classifier Clara uses for algorithm identification (§4.1).
type SVM struct {
	Classes []int
	w       [][]float64 // per class, length nf+1 (bias last)
}

// SVMConfig controls SVM training.
type SVMConfig struct {
	Epochs int
	Seed   int64
}

// svmLambda is the SVM's L2 regularization strength.
const svmLambda = 1e-3

// FitSVM trains one-vs-rest linear SVMs.
func FitSVM(X [][]float64, labels []int, cfg SVMConfig) *SVM {
	if cfg.Epochs == 0 {
		cfg.Epochs = 20
	}
	classes := distinctLabels(labels)
	nf := len(X[0])
	svm := &SVM{Classes: classes}
	for _, c := range classes {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(c)*7919))
		w := make([]float64, nf+1)
		t := 0
		for e := 0; e < cfg.Epochs; e++ {
			perm := rng.Perm(len(X))
			for _, i := range perm {
				t++
				eta := 1 / (svmLambda * float64(t))
				yi := -1.0
				if labels[i] == c {
					yi = 1.0
				}
				margin := yi * (Dot(w[:nf], X[i]) + w[nf])
				Scale(1-eta*svmLambda, w[:nf])
				if margin < 1 {
					Axpy(eta*yi, X[i], w[:nf])
					w[nf] += eta * yi * 0.1
				}
			}
		}
		svm.w = append(svm.w, w)
	}
	return svm
}

// Score returns the decision value for class index ci.
func (s *SVM) Score(x []float64, ci int) float64 {
	w := s.w[ci]
	return Dot(w[:len(w)-1], x) + w[len(w)-1]
}

// PredictClass returns the class with the highest decision value.
func (s *SVM) PredictClass(x []float64) int {
	best, bestScore := s.Classes[0], math.Inf(-1)
	for i := range s.w {
		if v := s.Score(x, i); v > bestScore {
			bestScore = v
			best = s.Classes[i]
		}
	}
	return best
}

// --- ridge regression ---

// Ridge is L2-regularized linear regression solved by normal equations.
type Ridge struct {
	w []float64 // nf+1, bias last
}

// FitRidge solves (XᵀX + λI) w = Xᵀy with Gaussian elimination.
func FitRidge(X [][]float64, y []float64, lambda float64) (*Ridge, error) {
	n := len(X)
	if n == 0 {
		return nil, fmt.Errorf("ml: empty training set")
	}
	nf := len(X[0]) + 1 // with bias column
	A := make([][]float64, nf)
	for i := range A {
		A[i] = make([]float64, nf+1)
	}
	xi := make([]float64, nf)
	for r := 0; r < n; r++ {
		copy(xi, X[r])
		xi[nf-1] = 1
		for i := 0; i < nf; i++ {
			for j := 0; j < nf; j++ {
				A[i][j] += xi[i] * xi[j]
			}
			A[i][nf] += xi[i] * y[r]
		}
	}
	for i := 0; i < nf-1; i++ {
		A[i][i] += lambda
	}
	// Gaussian elimination with partial pivoting.
	for col := 0; col < nf; col++ {
		piv := col
		for r := col + 1; r < nf; r++ {
			if math.Abs(A[r][col]) > math.Abs(A[piv][col]) {
				piv = r
			}
		}
		if math.Abs(A[piv][col]) < 1e-12 {
			return nil, fmt.Errorf("ml: singular system in ridge fit")
		}
		A[col], A[piv] = A[piv], A[col]
		for r := 0; r < nf; r++ {
			if r == col {
				continue
			}
			f := A[r][col] / A[col][col]
			for c := col; c <= nf; c++ {
				A[r][c] -= f * A[col][c]
			}
		}
	}
	w := make([]float64, nf)
	for i := 0; i < nf; i++ {
		w[i] = A[i][nf] / A[i][i]
	}
	return &Ridge{w: w}, nil
}

// Predict evaluates the linear model.
func (r *Ridge) Predict(x []float64) float64 {
	return Dot(r.w[:len(r.w)-1], x) + r.w[len(r.w)-1]
}

// --- k-means ---

// KMeans holds fitted cluster centroids.
type KMeans struct {
	Centroids [][]float64
}

// FitKMeans clusters X into k groups with k-means++ seeding and Lloyd
// iterations (Clara's variable-packing clustering, §4.4).
func FitKMeans(X [][]float64, k int, seed int64) *KMeans {
	if k < 1 {
		k = 1
	}
	if k > len(X) {
		k = len(X)
	}
	rng := rand.New(rand.NewSource(seed + 11))
	nf := len(X[0])

	// k-means++ seeding.
	centroids := make([][]float64, 0, k)
	first := append([]float64(nil), X[rng.Intn(len(X))]...)
	centroids = append(centroids, first)
	d2 := make([]float64, len(X))
	for len(centroids) < k {
		var sum float64
		for i, x := range X {
			d2[i] = math.Inf(1)
			for _, c := range centroids {
				if d := sqDist(x, c); d < d2[i] {
					d2[i] = d
				}
			}
			sum += d2[i]
		}
		pick := 0
		if sum > 0 {
			r := rng.Float64() * sum
			for i := range X {
				r -= d2[i]
				if r <= 0 {
					pick = i
					break
				}
			}
		} else {
			pick = rng.Intn(len(X))
		}
		centroids = append(centroids, append([]float64(nil), X[pick]...))
	}

	assign := make([]int, len(X))
	for iter := 0; iter < 50; iter++ {
		changed := false
		for i, x := range X {
			best, bestD := 0, math.Inf(1)
			for ci, c := range centroids {
				if d := sqDist(x, c); d < bestD {
					bestD = d
					best = ci
				}
			}
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
		}
		counts := make([]int, k)
		next := make([][]float64, k)
		for ci := range next {
			next[ci] = make([]float64, nf)
		}
		for i, x := range X {
			counts[assign[i]]++
			Axpy(1, x, next[assign[i]])
		}
		for ci := range next {
			if counts[ci] > 0 {
				Scale(1/float64(counts[ci]), next[ci])
				centroids[ci] = next[ci]
			}
		}
		if !changed {
			break
		}
	}
	return &KMeans{Centroids: centroids}
}

// Assign returns the nearest centroid index for x.
func (km *KMeans) Assign(x []float64) int {
	best, bestD := 0, math.Inf(1)
	for ci, c := range km.Centroids {
		if d := sqDist(x, c); d < bestD {
			bestD = d
			best = ci
		}
	}
	return best
}

// Inertia is the total within-cluster squared distance (elbow criterion).
func (km *KMeans) Inertia(X [][]float64) float64 {
	var s float64
	for _, x := range X {
		s += sqDist(x, km.Centroids[km.Assign(x)])
	}
	return s
}

func sqDist(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// --- PCA ---

// PCA holds the top principal components of a dataset.
type PCA struct {
	Mean       []float64
	Components [][]float64 // row per component
}

// FitPCA extracts the top-k principal components by power iteration with
// deflation (used for the Figure 10(a) projection).
func FitPCA(X [][]float64, k int, seed int64) *PCA {
	n, nf := len(X), len(X[0])
	mean := make([]float64, nf)
	for _, x := range X {
		Axpy(1, x, mean)
	}
	Scale(1/float64(n), mean)
	C := make([][]float64, n)
	for i, x := range X {
		C[i] = make([]float64, nf)
		for j := range x {
			C[i][j] = x[j] - mean[j]
		}
	}
	rng := rand.New(rand.NewSource(seed + 17))
	p := &PCA{Mean: mean}
	for comp := 0; comp < k; comp++ {
		v := make([]float64, nf)
		randInit(rng, v, 1)
		normalize(v)
		for iter := 0; iter < 100; iter++ {
			// v <- Cov * v, computed as Cᵀ(Cv)/n.
			cv := make([]float64, n)
			for i := range C {
				cv[i] = Dot(C[i], v)
			}
			nv := make([]float64, nf)
			for i := range C {
				Axpy(cv[i], C[i], nv)
			}
			Scale(1/float64(n), nv)
			normalize(nv)
			v = nv
		}
		p.Components = append(p.Components, v)
		// Deflate: remove the component from the data.
		for i := range C {
			proj := Dot(C[i], v)
			Axpy(-proj, v, C[i])
		}
	}
	return p
}

// Project maps x to component space.
func (p *PCA) Project(x []float64) []float64 {
	cx := make([]float64, len(x))
	for i := range x {
		cx[i] = x[i] - p.Mean[i]
	}
	out := make([]float64, len(p.Components))
	for i, c := range p.Components {
		out[i] = Dot(cx, c)
	}
	return out
}

func normalize(v []float64) {
	n := math.Sqrt(Dot(v, v))
	if n > 0 {
		Scale(1/n, v)
	}
}
