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

// boosted is an additive tree ensemble, score(x) = base + Σ lr·tree(x):
// the model every gradient-boosted learner here fits, whatever its loss.
type boosted struct {
	base  float64
	lr    float64
	trees []*Tree
}

func (b *boosted) score(x []float64) float64 {
	s := b.base
	for _, tr := range b.trees {
		s += b.lr * tr.Predict(x)
	}
	return s
}

// boost fits an ensemble by gradient boosting (Friedman 2001): from the
// constant base, each of rounds trees is a regression fit to the loss's
// negative gradient at the current raw scores, which negGrad writes into g.
func boost(X [][]float64, base, lr float64, rounds int, tcfg TreeConfig, negGrad func(raw, g []float64)) boosted {
	b := boosted{base: base, lr: lr}
	raw := make([]float64, len(X))
	for i := range raw {
		raw[i] = base
	}
	g := make([]float64, len(X))
	for round := 0; round < rounds; round++ {
		negGrad(raw, g)
		tr := FitTree(X, g, tcfg)
		b.trees = append(b.trees, tr)
		for i := range raw {
			raw[i] += lr * tr.Predict(X[i])
		}
	}
	return b
}

// GBDT is a gradient-boosted regression ensemble (squared loss), the model
// class Clara uses for scale-out prediction (§4.2, "a regression model
// based upon GBDT").
type GBDT struct{ boosted }

// FitGBDT trains gradient boosting on squared loss, starting from the mean.
func FitGBDT(X [][]float64, y []float64, cfg GBDTConfig) *GBDT {
	cfg = cfg.norm()
	var s float64
	for _, v := range y {
		s += v
	}
	return &GBDT{boost(X, s/float64(len(y)), cfg.LR, cfg.Trees, TreeConfig{MaxDepth: cfg.MaxDepth},
		func(raw, g []float64) {
			for i := range g {
				g[i] = y[i] - raw[i]
			}
		})}
}

// Predict evaluates the ensemble.
func (g *GBDT) Predict(x []float64) float64 { return g.score(x) }

// GBDTClassifier is binary logistic gradient boosting wrapped one-vs-rest
// for multi-class problems.
type GBDTClassifier struct{ ovr }

// FitGBDTClassifier trains one logistic GBDT per class, each boosted on
// logloss from the smoothed log-odds of its class.
func FitGBDTClassifier(X [][]float64, labels []int, cfg GBDTConfig) *GBDTClassifier {
	cfg = cfg.norm()
	return &GBDTClassifier{fitOVR(labels, func(y01 []float64) func([]float64) float64 {
		var pos float64
		for _, v := range y01 {
			pos += v
		}
		p := (pos + 1) / (float64(len(y01)) + 2)
		m := boost(X, math.Log(p/(1-p)), cfg.LR, cfg.Trees, TreeConfig{MaxDepth: cfg.MaxDepth},
			func(raw, g []float64) {
				for i := range g {
					g[i] = y01[i] - sigmoid(raw[i]) // negative gradient of logloss
				}
			})
		return m.score
	})}
}

func sigmoid(z float64) float64 { return 1 / (1 + math.Exp(-z)) }

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
