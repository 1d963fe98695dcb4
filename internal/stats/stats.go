// Package stats provides the evaluation metrics and distribution distances
// the paper reports: WMAPE for instruction prediction (§5.2),
// precision/recall for algorithm identification (§5.3), MAE for core-count
// prediction (§5.4), top-k accuracy for colocation ranking (§5.7), and the
// six distribution distances of Table 1.
package stats

import (
	"fmt"
	"math"
)

// WMAPE is the weighted mean absolute percentage error:
// Σ|y−ŷ| / Σ|y|.
func WMAPE(truth, pred []float64) float64 {
	if len(truth) != len(pred) || len(truth) == 0 {
		return math.NaN()
	}
	var num, den float64
	for i := range truth {
		num += math.Abs(truth[i] - pred[i])
		den += math.Abs(truth[i])
	}
	if den == 0 {
		return math.NaN()
	}
	return num / den
}

// MAE is the mean absolute error.
func MAE(truth, pred []float64) float64 {
	if len(truth) != len(pred) || len(truth) == 0 {
		return math.NaN()
	}
	var s float64
	for i := range truth {
		s += math.Abs(truth[i] - pred[i])
	}
	return s / float64(len(truth))
}

// PrecisionRecall computes multi-class averaged precision and recall over
// the positive classes (labels > 0; label 0 is "none").
func PrecisionRecall(truth, pred []int) (precision, recall float64) {
	var tp, fp, fn float64
	for i := range truth {
		switch {
		case pred[i] > 0 && pred[i] == truth[i]:
			tp++
		case pred[i] > 0 && pred[i] != truth[i]:
			fp++
			if truth[i] > 0 {
				fn++
			}
		case pred[i] == 0 && truth[i] > 0:
			fn++
		}
	}
	if tp+fp > 0 {
		precision = tp / (tp + fp)
	}
	if tp+fn > 0 {
		recall = tp / (tp + fn)
	}
	return precision, recall
}

// Mean returns the arithmetic mean.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// --- Distribution distances (Table 1) ---

const eps = 1e-12

func checkDist(p, q []float64) error {
	if len(p) != len(q) || len(p) == 0 {
		return fmt.Errorf("stats: distributions must be same nonzero length")
	}
	return nil
}

// KL computes the Kullback-Leibler divergence D(p||q) with epsilon
// smoothing.
func KL(p, q []float64) float64 {
	var s float64
	for i := range p {
		pi, qi := p[i]+eps, q[i]+eps
		s += pi * math.Log(pi/qi)
	}
	return s
}

// JensenShannon computes the Jensen-Shannon divergence (base e).
func JensenShannon(p, q []float64) (float64, error) {
	if err := checkDist(p, q); err != nil {
		return 0, err
	}
	m := make([]float64, len(p))
	for i := range p {
		m[i] = (p[i] + q[i]) / 2
	}
	return KL(p, m)/2 + KL(q, m)/2, nil
}

// Renyi computes the Rényi divergence of order alpha (the paper uses a
// fixed order; we default to 2 in RenyiDefault).
func Renyi(p, q []float64, alpha float64) (float64, error) {
	if err := checkDist(p, q); err != nil {
		return 0, err
	}
	if alpha == 1 {
		return KL(p, q), nil
	}
	var s float64
	for i := range p {
		pi, qi := p[i]+eps, q[i]+eps
		s += math.Pow(pi, alpha) / math.Pow(qi, alpha-1)
	}
	return math.Log(s) / (alpha - 1), nil
}

// RenyiDefault is Renyi with alpha = 2.
func RenyiDefault(p, q []float64) (float64, error) { return Renyi(p, q, 2) }

// Bhattacharyya computes the Bhattacharyya distance.
func Bhattacharyya(p, q []float64) (float64, error) {
	if err := checkDist(p, q); err != nil {
		return 0, err
	}
	var bc float64
	for i := range p {
		bc += math.Sqrt((p[i] + eps) * (q[i] + eps))
	}
	if bc > 1 {
		bc = 1
	}
	return -math.Log(bc), nil
}

// Cosine computes the cosine distance 1 − cos(p, q).
func Cosine(p, q []float64) (float64, error) {
	if err := checkDist(p, q); err != nil {
		return 0, err
	}
	var dot, np, nq float64
	for i := range p {
		dot += p[i] * q[i]
		np += p[i] * p[i]
		nq += q[i] * q[i]
	}
	if np == 0 || nq == 0 {
		return 1, nil
	}
	return 1 - dot/(math.Sqrt(np)*math.Sqrt(nq)), nil
}

// Euclidean computes the L2 distance.
func Euclidean(p, q []float64) (float64, error) {
	if err := checkDist(p, q); err != nil {
		return 0, err
	}
	var s float64
	for i := range p {
		d := p[i] - q[i]
		s += d * d
	}
	return math.Sqrt(s), nil
}

// Variational computes the total variation distance scaled by 2 (the L1
// distance), the "variational distance" of Table 1.
func Variational(p, q []float64) (float64, error) {
	if err := checkDist(p, q); err != nil {
		return 0, err
	}
	var s float64
	for i := range p {
		s += math.Abs(p[i] - q[i])
	}
	return s, nil
}
