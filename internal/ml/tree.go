package ml

import (
	"math"
	"math/rand"
	"sort"
)

// TreeConfig controls CART tree induction.
type TreeConfig struct {
	MaxDepth    int
	MinSamples  int // minimum samples to attempt a split
	FeatureFrac float64
	Rng         *rand.Rand // used only when FeatureFrac < 1
}

func (c TreeConfig) norm() TreeConfig {
	if c.MaxDepth == 0 {
		c.MaxDepth = 6
	}
	if c.MinSamples == 0 {
		c.MinSamples = 4
	}
	if c.FeatureFrac == 0 {
		c.FeatureFrac = 1
	}
	return c
}

type treeNode struct {
	feature int
	thresh  float64
	left    int // child indices; -1 = leaf
	right   int
	value   float64 // leaf prediction (mean target / class score)
}

// Tree is a CART regression tree.
type Tree struct {
	nodes []treeNode
}

// FitTree builds a regression tree on (X, y) using variance-reduction
// splits.
func FitTree(X [][]float64, y []float64, cfg TreeConfig) *Tree {
	cfg = cfg.norm()
	t := &Tree{}
	idx := make([]int, len(y))
	for i := range idx {
		idx[i] = i
	}
	t.build(X, y, idx, 0, cfg)
	return t
}

func mean(y []float64, idx []int) float64 {
	var s float64
	for _, i := range idx {
		s += y[i]
	}
	return s / float64(len(idx))
}

// build appends a node for idx and returns its index.
func (t *Tree) build(X [][]float64, y []float64, idx []int, depth int, cfg TreeConfig) int {
	node := treeNode{left: -1, right: -1, value: mean(y, idx)}
	ni := len(t.nodes)
	t.nodes = append(t.nodes, node)
	if depth >= cfg.MaxDepth || len(idx) < cfg.MinSamples {
		return ni
	}

	nf := len(X[0])
	feats := make([]int, nf)
	for i := range feats {
		feats[i] = i
	}
	if cfg.FeatureFrac < 1 && cfg.Rng != nil {
		cfg.Rng.Shuffle(nf, func(i, j int) { feats[i], feats[j] = feats[j], feats[i] })
		k := int(math.Ceil(cfg.FeatureFrac * float64(nf)))
		if k < 1 {
			k = 1
		}
		feats = feats[:k]
		sort.Ints(feats)
	}

	bestFeat, bestThresh, bestGain := -1, 0.0, 0.0
	var sumAll, sqAll float64
	for _, i := range idx {
		sumAll += y[i]
		sqAll += y[i] * y[i]
	}
	total := float64(len(idx))
	sseAll := sqAll - sumAll*sumAll/total

	order := make([]int, len(idx))
	for _, f := range feats {
		copy(order, idx)
		sort.Slice(order, func(a, b int) bool { return X[order[a]][f] < X[order[b]][f] })
		var sumL, sqL float64
		for k := 0; k < len(order)-1; k++ {
			i := order[k]
			sumL += y[i]
			sqL += y[i] * y[i]
			if X[order[k]][f] == X[order[k+1]][f] {
				continue // can't split between equal values
			}
			nL := float64(k + 1)
			nR := total - nL
			sseL := sqL - sumL*sumL/nL
			sumR := sumAll - sumL
			sseR := (sqAll - sqL) - sumR*sumR/nR
			gain := sseAll - sseL - sseR
			if gain > bestGain+1e-12 {
				bestGain = gain
				bestFeat = f
				bestThresh = (X[order[k]][f] + X[order[k+1]][f]) / 2
			}
		}
	}
	if bestFeat < 0 {
		return ni
	}
	var li, ri []int
	for _, i := range idx {
		if X[i][bestFeat] <= bestThresh {
			li = append(li, i)
		} else {
			ri = append(ri, i)
		}
	}
	if len(li) == 0 || len(ri) == 0 {
		return ni
	}
	t.nodes[ni].feature = bestFeat
	t.nodes[ni].thresh = bestThresh
	l := t.build(X, y, li, depth+1, cfg)
	r := t.build(X, y, ri, depth+1, cfg)
	t.nodes[ni].left = l
	t.nodes[ni].right = r
	return ni
}

// Predict evaluates the tree.
func (t *Tree) Predict(x []float64) float64 {
	ni := 0
	for {
		n := &t.nodes[ni]
		if n.left < 0 {
			return n.value
		}
		if x[n.feature] <= n.thresh {
			ni = n.left
		} else {
			ni = n.right
		}
	}
}

// ovr is a one-vs-rest classifier: one regression model per class, fit
// to that class's 0/1 indicator, predicting the class that scores highest.
type ovr struct {
	Classes []int
	scores  []func(x []float64) float64
}

// fitOVR fits one model per distinct label: fit maps a class's 0/1
// targets to its score function.
func fitOVR(labels []int, fit func(y01 []float64) func(x []float64) float64) ovr {
	o := ovr{Classes: distinctLabels(labels)}
	for _, c := range o.Classes {
		y := make([]float64, len(labels))
		for i, l := range labels {
			if l == c {
				y[i] = 1
			}
		}
		o.scores = append(o.scores, fit(y))
	}
	return o
}

// PredictClass returns the argmax-score class.
func (o *ovr) PredictClass(x []float64) int {
	best, bestScore := o.Classes[0], math.Inf(-1)
	for i, score := range o.scores {
		if s := score(x); s > bestScore {
			bestScore = s
			best = o.Classes[i]
		}
	}
	return best
}

// TreeClassifier wraps per-class regression trees (one-vs-rest on 0/1
// targets) into a classifier.
type TreeClassifier struct{ ovr }

// FitTreeClassifier trains one tree per distinct label.
func FitTreeClassifier(X [][]float64, labels []int, cfg TreeConfig) *TreeClassifier {
	return &TreeClassifier{fitOVR(labels, func(y01 []float64) func([]float64) float64 {
		return FitTree(X, y01, cfg).Predict
	})}
}

func distinctLabels(labels []int) []int {
	seen := map[int]bool{}
	var out []int
	for _, l := range labels {
		if !seen[l] {
			seen[l] = true
			out = append(out, l)
		}
	}
	sort.Ints(out)
	return out
}
