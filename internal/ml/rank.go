package ml

import "math"

// PrefPair expresses that sample Better should rank above sample Worse.
type PrefPair struct {
	Better, Worse int
}

// RankConfig configures the pairwise gradient-boosted ranker — the
// LambdaMART-style model Clara trains for NF colocation analysis (§4.5),
// standing in for XGBoost's rank:pairwise objective. Like GBDTConfig it has
// no seed: every round sees all samples and features.
type RankConfig struct {
	Trees    int
	MaxDepth int
}

// rankLR is the ranker's boosting learning rate.
const rankLR = 0.1

func (c RankConfig) norm() RankConfig {
	if c.Trees == 0 {
		c.Trees = 80
	}
	if c.MaxDepth == 0 {
		c.MaxDepth = 3
	}
	return c
}

// Ranker scores feature vectors such that preferred items score higher.
type Ranker struct {
	lr    float64
	trees []*Tree
}

// FitRanker minimizes the pairwise logistic loss
// Σ log(1 + exp(−(s(better) − s(worse)))) by gradient boosting: each round
// fits a regression tree to the per-sample pseudo-gradients ("lambdas").
func FitRanker(X [][]float64, pairs []PrefPair, cfg RankConfig) *Ranker {
	cfg = cfg.norm()
	r := &Ranker{lr: rankLR}
	n := len(X)
	scores := make([]float64, n)
	lambdas := make([]float64, n)
	tcfg := TreeConfig{MaxDepth: cfg.MaxDepth, MinSamples: 3}
	for round := 0; round < cfg.Trees; round++ {
		for i := range lambdas {
			lambdas[i] = 0
		}
		for _, pr := range pairs {
			// d/ds of −log σ(s_b − s_w): push better up, worse down.
			rho := sigmoid(-(scores[pr.Better] - scores[pr.Worse]))
			lambdas[pr.Better] += rho
			lambdas[pr.Worse] -= rho
		}
		tr := FitTree(X, lambdas, tcfg)
		r.trees = append(r.trees, tr)
		for i := range scores {
			scores[i] += rankLR * tr.Predict(X[i])
		}
	}
	return r
}

// Score returns the ranking score (higher = preferred).
func (r *Ranker) Score(x []float64) float64 {
	var s float64
	for _, tr := range r.trees {
		s += r.lr * tr.Predict(x)
	}
	return s
}

// PairLoss computes the pairwise logistic loss of the ranker on held-out
// pairs (convergence check).
func (r *Ranker) PairLoss(X [][]float64, pairs []PrefPair) float64 {
	if len(pairs) == 0 {
		return 0
	}
	scores := make([]float64, len(X))
	for i, x := range X {
		scores[i] = r.Score(x)
	}
	var loss float64
	for _, p := range pairs {
		loss += math.Log1p(math.Exp(-(scores[p.Better] - scores[p.Worse])))
	}
	return loss / float64(len(pairs))
}
