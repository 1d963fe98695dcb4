package ml

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"
)

// ensembleBitsSHA is the sha256 TestEnsembleBitsPinned computes. It moves
// only when a boosted or one-vs-rest model's arithmetic changes on purpose.
const ensembleBitsSHA = "13274ec355a075af87ec3251588e0f7bcb69242922f14af8b873fc3846c20987"

// TestEnsembleBitsPinned pins the tree ensembles bit for bit: the GBDT
// regressor (and its Export → NewGBDTFromState round trip), the logistic
// GBDT and tree one-vs-rest classifiers, and the pairwise ranker. One
// sha256 covers the float64 bits of every prediction, score, per-class
// score, predicted class and pair loss on a seeded dataset, so a
// refactor of the boosting loop or the one-vs-rest wrapper that changes
// any output in its last bit fails here.
func TestEnsembleBitsPinned(t *testing.T) {
	const n, held, d = 120, 40, 5
	rng := rand.New(rand.NewSource(17))
	X := make([][]float64, n+held)
	y := make([]float64, n+held)
	labels := make([]int, n+held)
	classOf := []int{2, 5, 7, 11}
	for i := range X {
		x := make([]float64, d)
		for j := range x {
			x[j] = rng.Float64()*4 - 2
		}
		X[i] = x
		y[i] = 2*x[0] - x[1]*x[2] + math.Sin(3*x[3]) + 0.1*rng.NormFloat64()
		k := 0
		if x[0]+x[1] > 0 {
			k += 2
		}
		if x[2]-0.5*x[4] > 0.3 {
			k++
		}
		labels[i] = classOf[k]
	}
	Xtr, ytr, ltr := X[:n], y[:n], labels[:n]
	var pairs []PrefPair
	for i := 0; i+1 < n; i += 2 {
		if ytr[i] > ytr[i+1] {
			pairs = append(pairs, PrefPair{Better: i, Worse: i + 1})
		} else {
			pairs = append(pairs, PrefPair{Better: i + 1, Worse: i})
		}
	}

	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	putF := func(v float64) { put(math.Float64bits(v)) }

	g := FitGBDT(Xtr, ytr, GBDTConfig{})
	g2, err := NewGBDTFromState(g.Export())
	if err != nil {
		t.Fatal(err)
	}
	gc := FitGBDTClassifier(Xtr, ltr, GBDTConfig{Trees: 40, MaxDepth: 3})
	tc := FitTreeClassifier(Xtr, ltr, TreeConfig{MaxDepth: 4})
	r := FitRanker(Xtr, pairs, RankConfig{})

	classifiers := []struct {
		name    string
		classes []int
		m       Classifier
	}{{"GBDTClassifier", gc.Classes, gc}, {"TreeClassifier", tc.Classes, tc}}
	for _, c := range classifiers {
		if len(c.classes) != len(classOf) {
			t.Fatalf("%s: %d classes, want %d", c.name, len(c.classes), len(classOf))
		}
		if got := len(classScores(c.m)); got != len(c.classes) {
			t.Fatalf("%s: %d per-class scores for %d classes", c.name, got, len(c.classes))
		}
		for _, cl := range c.classes {
			put(uint64(cl))
		}
	}
	for _, x := range X {
		p := g.Predict(x)
		if math.Float64bits(p) != math.Float64bits(g2.Predict(x)) {
			t.Fatalf("GBDT state round trip predicts %v, original %v", g2.Predict(x), p)
		}
		putF(p)
		putF(r.Score(x))
		for _, c := range classifiers {
			for _, score := range classScores(c.m) {
				putF(score(x))
			}
			put(uint64(c.m.PredictClass(x)))
		}
	}
	putF(r.PairLoss(Xtr, pairs))
	putF(r.PairLoss(X, []PrefPair{{Better: n, Worse: n + 1}, {Better: n + 3, Worse: n + 2}}))

	if got := hex.EncodeToString(h.Sum(nil)); got != ensembleBitsSHA {
		t.Fatalf("ensemble outputs hash to %s, want %s", got, ensembleBitsSHA)
	}
}

// classScores returns a one-vs-rest classifier's per-class score
// functions in Classes order.
func classScores(m Classifier) []func([]float64) float64 {
	switch m := m.(type) {
	case *TreeClassifier:
		return m.scores
	case *GBDTClassifier:
		return m.scores
	}
	return nil
}
