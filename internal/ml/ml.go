// Package ml implements, from scratch on the standard library, every
// machine-learning technique the paper's pipeline uses or compares against:
//
//   - LSTM + fully-connected head for instruction prediction (§3.2),
//   - DNN (MLP) and 1-D CNN baselines (§5.2),
//   - linear SVM for algorithm identification (§4.1),
//   - decision trees, random forests, kNN and GBDT (§5.3, §5.4 baselines),
//   - GBDT regression for scale-out analysis (§4.2),
//   - pairwise (LambdaMART-style) gradient-boosted ranking (§4.5),
//   - k-means for access-vector clustering (§4.4),
//   - PCA for the Figure 10(a) feature-space view,
//   - an AutoML pipeline search standing in for TPOT (§5.1).
//
// The three boosted models share one additive ensemble and one boosting
// loop (gbdt.go), differing only in their loss; the tree and GBDT
// classifiers share one one-vs-rest wrapper (tree.go).
//
// All training is deterministic given the caller's seed.
package ml

import (
	"math"
	"math/rand"

	"clara/internal/ml/vek"
)

// Regressor predicts a scalar from a feature vector.
type Regressor interface {
	Predict(x []float64) float64
}

// Classifier predicts a class label from a feature vector.
type Classifier interface {
	PredictClass(x []float64) int
}

// Dot computes the inner product. Thin wrapper over the shared vector
// kernels in internal/ml/vek so every model picks up the same unrolled
// (and therefore consistently associated) summation.
func Dot(a, b []float64) float64 { return vek.Dot(a, b) }

// Axpy computes y += alpha*x in place.
func Axpy(alpha float64, x, y []float64) { vek.Axpy(alpha, x, y) }

// Scale multiplies x by alpha in place.
func Scale(alpha float64, x []float64) { vek.Scale(alpha, x) }

// randInit fills w with small uniform values in [-r, r].
func randInit(rng *rand.Rand, w []float64, r float64) {
	for i := range w {
		w[i] = (rng.Float64()*2 - 1) * r
	}
}

// Adam is the Adam optimizer over a flat parameter vector.
type Adam struct {
	LR      float64
	Beta1   float64
	Beta2   float64
	Eps     float64
	m, v    []float64
	t       int
	clipAbs float64
}

// NewAdam returns an Adam optimizer for n parameters with gradient-norm
// clipping at clip (0 disables clipping).
func NewAdam(n int, lr, clip float64) *Adam {
	return &Adam{
		LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8,
		m: make([]float64, n), v: make([]float64, n), clipAbs: clip,
	}
}

// Step applies one update of params -= lr * mhat/(sqrt(vhat)+eps).
func (a *Adam) Step(params, grads []float64) {
	a.t++
	if a.clipAbs > 0 {
		var norm float64
		for _, g := range grads {
			norm += g * g
		}
		if norm > a.clipAbs*a.clipAbs {
			Scale(a.clipAbs/math.Sqrt(norm), grads)
		}
	}
	b1c := 1 - math.Pow(a.Beta1, float64(a.t))
	b2c := 1 - math.Pow(a.Beta2, float64(a.t))
	for i := range params {
		g := grads[i]
		a.m[i] = a.Beta1*a.m[i] + (1-a.Beta1)*g
		a.v[i] = a.Beta2*a.v[i] + (1-a.Beta2)*g*g
		params[i] -= a.LR * (a.m[i] / b1c) / (math.Sqrt(a.v[i]/b2c) + a.Eps)
	}
}
