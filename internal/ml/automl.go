package ml

import (
	"fmt"
	"math"
)

// This file implements the AutoML stand-in for TPOT (§5.1): a pipeline
// search over model families and hyperparameters scored by k-fold
// cross-validation. Like TPOT it supports regression and classification
// but not ranking ("AutoML solutions currently do not support ranking
// tasks", §5.7).

// AutoMLResult describes the selected pipeline.
type AutoMLResult struct {
	Pipeline string
	CVScore  float64 // mean CV MAE (regression) or error rate (classification)
}

type candidateReg struct {
	name string
	fit  func(X [][]float64, y []float64) Regressor
}

type candidateCls struct {
	name string
	fit  func(X [][]float64, labels []int) Classifier
}

func regCandidates(seed int64) []candidateReg {
	return []candidateReg{
		{"ridge(0.1)", func(X [][]float64, y []float64) Regressor {
			r, err := FitRidge(X, y, 0.1)
			if err != nil {
				return constReg(meanOf(y))
			}
			return r
		}},
		{"ridge(10)", func(X [][]float64, y []float64) Regressor {
			r, err := FitRidge(X, y, 10)
			if err != nil {
				return constReg(meanOf(y))
			}
			return r
		}},
		{"knn(3)", func(X [][]float64, y []float64) Regressor { return FitKNNRegressor(X, y, 3) }},
		{"knn(7)", func(X [][]float64, y []float64) Regressor { return FitKNNRegressor(X, y, 7) }},
		{"tree(6)", func(X [][]float64, y []float64) Regressor {
			return FitTree(X, y, TreeConfig{MaxDepth: 6})
		}},
		{"forest(40)", func(X [][]float64, y []float64) Regressor {
			return FitForest(X, y, ForestConfig{Trees: 40, Seed: seed})
		}},
		{"forest(80,deep)", func(X [][]float64, y []float64) Regressor {
			return FitForest(X, y, ForestConfig{Trees: 80, MaxDepth: 12, Seed: seed})
		}},
		{"gbdt(60)", func(X [][]float64, y []float64) Regressor {
			return FitGBDT(X, y, GBDTConfig{Trees: 60, MaxDepth: 3})
		}},
		{"gbdt(120,slow)", func(X [][]float64, y []float64) Regressor {
			return FitGBDT(X, y, GBDTConfig{Trees: 120, MaxDepth: 4, LR: 0.05})
		}},
	}
}

func clsCandidates(seed int64) []candidateCls {
	return []candidateCls{
		{"knn(1)", func(X [][]float64, l []int) Classifier { return FitKNNClassifier(X, l, 1) }},
		{"knn(5)", func(X [][]float64, l []int) Classifier { return FitKNNClassifier(X, l, 5) }},
		{"tree(8)", func(X [][]float64, l []int) Classifier {
			return FitTreeClassifier(X, l, TreeConfig{MaxDepth: 8})
		}},
		{"svm", func(X [][]float64, l []int) Classifier {
			return FitSVM(X, l, SVMConfig{Seed: seed})
		}},
		{"gbdt(40)", func(X [][]float64, l []int) Classifier {
			return FitGBDTClassifier(X, l, GBDTConfig{Trees: 40, MaxDepth: 3})
		}},
	}
}

type constReg float64

func (c constReg) Predict([]float64) float64 { return float64(c) }

func meanOf(y []float64) float64 {
	var s float64
	for _, v := range y {
		s += v
	}
	if len(y) == 0 {
		return 0
	}
	return s / float64(len(y))
}

// foldBounds returns [start, end) of fold f of k over n items.
func foldBounds(n, k, f int) (int, int) {
	size := (n + k - 1) / k
	s := f * size
	e := s + size
	if e > n {
		e = n
	}
	return s, e
}

// AutoMLRegressor cross-validates all candidate pipelines and refits the
// winner on the full data.
func AutoMLRegressor(X [][]float64, y []float64, folds int, seed int64) (Regressor, AutoMLResult, error) {
	if len(X) < folds || folds < 2 {
		return nil, AutoMLResult{}, fmt.Errorf("ml: need >= %d samples for %d-fold CV", folds, folds)
	}
	best := AutoMLResult{CVScore: math.Inf(1)}
	var bestFit func(X [][]float64, y []float64) Regressor
	for _, cand := range regCandidates(seed) {
		var errSum float64
		var count int
		for f := 0; f < folds; f++ {
			s, e := foldBounds(len(X), folds, f)
			if s >= e {
				continue
			}
			var trX [][]float64
			var trY []float64
			for i := range X {
				if i < s || i >= e {
					trX = append(trX, X[i])
					trY = append(trY, y[i])
				}
			}
			model := cand.fit(trX, trY)
			for i := s; i < e; i++ {
				errSum += math.Abs(model.Predict(X[i]) - y[i])
				count++
			}
		}
		score := errSum / float64(count)
		if score < best.CVScore {
			best = AutoMLResult{Pipeline: cand.name, CVScore: score}
			bestFit = cand.fit
		}
	}
	return bestFit(X, y), best, nil
}

// AutoMLClassifier cross-validates candidate classifiers and refits the
// winner.
func AutoMLClassifier(X [][]float64, labels []int, folds int, seed int64) (Classifier, AutoMLResult, error) {
	if len(X) < folds || folds < 2 {
		return nil, AutoMLResult{}, fmt.Errorf("ml: need >= %d samples for %d-fold CV", folds, folds)
	}
	best := AutoMLResult{CVScore: math.Inf(1)}
	var bestFit func(X [][]float64, labels []int) Classifier
	for _, cand := range clsCandidates(seed) {
		var wrong, count int
		for f := 0; f < folds; f++ {
			s, e := foldBounds(len(X), folds, f)
			if s >= e {
				continue
			}
			var trX [][]float64
			var trL []int
			for i := range X {
				if i < s || i >= e {
					trX = append(trX, X[i])
					trL = append(trL, labels[i])
				}
			}
			model := cand.fit(trX, trL)
			for i := s; i < e; i++ {
				if model.PredictClass(X[i]) != labels[i] {
					wrong++
				}
				count++
			}
		}
		score := float64(wrong) / float64(count)
		if score < best.CVScore {
			best = AutoMLResult{Pipeline: cand.name, CVScore: score}
			bestFit = cand.fit
		}
	}
	return bestFit(X, labels), best, nil
}
