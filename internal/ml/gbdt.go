package ml

import (
	"math"
	"math/rand"
)

// GBDTConfig controls gradient-boosted tree training. Every round fits its
// tree to all rows and all features, so the ensemble is a deterministic
// function of the data and the config: there is no seed.
type GBDTConfig struct {
	Trees    int
	LR       float64
	MaxDepth int
}

func (c GBDTConfig) norm() GBDTConfig {
	if c.Trees == 0 {
		c.Trees = 100
	}
	if c.LR == 0 {
		c.LR = 0.1
	}
	if c.MaxDepth == 0 {
		c.MaxDepth = 4
	}
	return c
}

// GBDT is a gradient-boosted regression ensemble (squared loss), the model
// class Clara uses for scale-out prediction (§4.2, "a regression model
// based upon GBDT").
type GBDT struct {
	base  float64
	lr    float64
	trees []*Tree
}

// FitGBDT trains gradient boosting on squared loss.
func FitGBDT(X [][]float64, y []float64, cfg GBDTConfig) *GBDT {
	cfg = cfg.norm()
	g := &GBDT{lr: cfg.LR}
	n := len(y)
	var s float64
	for _, v := range y {
		s += v
	}
	g.base = s / float64(n)

	pred := make([]float64, n)
	for i := range pred {
		pred[i] = g.base
	}
	resid := make([]float64, n)
	tcfg := TreeConfig{MaxDepth: cfg.MaxDepth}

	for round := 0; round < cfg.Trees; round++ {
		for i := range resid {
			resid[i] = y[i] - pred[i]
		}
		tr := FitTree(X, resid, tcfg)
		g.trees = append(g.trees, tr)
		for i := range pred {
			pred[i] += cfg.LR * tr.Predict(X[i])
		}
	}
	return g
}

// Predict evaluates the ensemble.
func (g *GBDT) Predict(x []float64) float64 {
	s := g.base
	for _, tr := range g.trees {
		s += g.lr * tr.Predict(x)
	}
	return s
}

// GBDTClassifier is binary logistic gradient boosting wrapped one-vs-rest
// for multi-class problems.
type GBDTClassifier struct {
	Classes []int
	models  []*gbdtLogit
}

type gbdtLogit struct {
	base  float64
	lr    float64
	trees []*Tree
}

func (m *gbdtLogit) score(x []float64) float64 {
	s := m.base
	for _, tr := range m.trees {
		s += m.lr * tr.Predict(x)
	}
	return s
}

func fitGBDTLogit(X [][]float64, y01 []float64, cfg GBDTConfig) *gbdtLogit {
	n := len(y01)
	var pos float64
	for _, v := range y01 {
		pos += v
	}
	p := (pos + 1) / (float64(n) + 2)
	m := &gbdtLogit{lr: cfg.LR, base: math.Log(p / (1 - p))}
	raw := make([]float64, n)
	for i := range raw {
		raw[i] = m.base
	}
	grad := make([]float64, n)
	tcfg := TreeConfig{MaxDepth: cfg.MaxDepth}
	for round := 0; round < cfg.Trees; round++ {
		for i := range grad {
			grad[i] = y01[i] - sigmoid(raw[i]) // negative gradient of logloss
		}
		tr := FitTree(X, grad, tcfg)
		m.trees = append(m.trees, tr)
		for i := range raw {
			raw[i] += cfg.LR * tr.Predict(X[i])
		}
	}
	return m
}

func sigmoid(z float64) float64 { return 1 / (1 + math.Exp(-z)) }

// FitGBDTClassifier trains one logistic GBDT per class.
func FitGBDTClassifier(X [][]float64, labels []int, cfg GBDTConfig) *GBDTClassifier {
	cfg = cfg.norm()
	classes := distinctLabels(labels)
	gc := &GBDTClassifier{Classes: classes}
	for _, c := range classes {
		y := make([]float64, len(labels))
		for i, l := range labels {
			if l == c {
				y[i] = 1
			}
		}
		gc.models = append(gc.models, fitGBDTLogit(X, y, cfg))
	}
	return gc
}

// PredictClass returns the argmax-score class.
func (gc *GBDTClassifier) PredictClass(x []float64) int {
	best, bestScore := gc.Classes[0], math.Inf(-1)
	for i, m := range gc.models {
		if s := m.score(x); s > bestScore {
			bestScore = s
			best = gc.Classes[i]
		}
	}
	return best
}

// Forest is a random-forest regressor (the model TPOT selects in §5.2).
type Forest struct {
	trees []*Tree
}

// ForestConfig controls random-forest training.
type ForestConfig struct {
	Trees    int
	MaxDepth int
	Seed     int64
}

// forestFeatureFrac is the share of features each forest split considers.
const forestFeatureFrac = 0.7

// FitForest trains a bagged ensemble with feature subsampling.
func FitForest(X [][]float64, y []float64, cfg ForestConfig) *Forest {
	if cfg.Trees == 0 {
		cfg.Trees = 60
	}
	if cfg.MaxDepth == 0 {
		cfg.MaxDepth = 8
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 3))
	f := &Forest{}
	n := len(y)
	for k := 0; k < cfg.Trees; k++ {
		Xb := make([][]float64, n)
		yb := make([]float64, n)
		for i := 0; i < n; i++ {
			j := rng.Intn(n)
			Xb[i] = X[j]
			yb[i] = y[j]
		}
		f.trees = append(f.trees, FitTree(Xb, yb, TreeConfig{
			MaxDepth: cfg.MaxDepth, MinSamples: 3,
			FeatureFrac: forestFeatureFrac, Rng: rng,
		}))
	}
	return f
}

// Predict averages the ensemble.
func (f *Forest) Predict(x []float64) float64 {
	var s float64
	for _, tr := range f.trees {
		s += tr.Predict(x)
	}
	return s / float64(len(f.trees))
}
