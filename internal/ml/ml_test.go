package ml

import (
	"context"
	"math"
	"math/rand"
	"testing"
)

// synthReg builds y = 3*x0 - 2*x1 + noiseless nonlinearity on x2.
func synthReg(n int, seed int64) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		x := []float64{rng.Float64() * 4, rng.Float64() * 4, rng.Float64() * 4}
		X[i] = x
		y[i] = 3*x[0] - 2*x[1]
		if x[2] > 2 {
			y[i] += 5
		}
	}
	return X, y
}

func maeOf(m Regressor, X [][]float64, y []float64) float64 {
	var s float64
	for i := range X {
		s += math.Abs(m.Predict(X[i]) - y[i])
	}
	return s / float64(len(X))
}

func TestTreeLearnsStep(t *testing.T) {
	X, y := synthReg(400, 1)
	tr := FitTree(X, y, TreeConfig{MaxDepth: 8})
	if mae := maeOf(tr, X, y); mae > 1.0 {
		t.Errorf("tree train MAE %f too high", mae)
	}
}

func TestGBDTBeatsSingleTree(t *testing.T) {
	X, y := synthReg(400, 2)
	Xt, yt := synthReg(200, 3)
	tr := FitTree(X, y, TreeConfig{MaxDepth: 3})
	gb := FitGBDT(X, y, GBDTConfig{Trees: 120, MaxDepth: 3})
	if maeOf(gb, Xt, yt) >= maeOf(tr, Xt, yt) {
		t.Errorf("GBDT (%f) should beat a depth-3 tree (%f)",
			maeOf(gb, Xt, yt), maeOf(tr, Xt, yt))
	}
}

func TestForestGeneralizes(t *testing.T) {
	X, y := synthReg(400, 5)
	Xt, yt := synthReg(200, 6)
	f := FitForest(X, y, ForestConfig{Trees: 40, Seed: 7})
	if mae := maeOf(f, Xt, yt); mae > 1.5 {
		t.Errorf("forest test MAE %f too high", mae)
	}
}

func TestRidgeRecoversLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	X := make([][]float64, 200)
	y := make([]float64, 200)
	for i := range X {
		X[i] = []float64{rng.Float64(), rng.Float64()}
		y[i] = 4*X[i][0] - 7*X[i][1] + 2
	}
	r, err := FitRidge(X, y, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if mae := maeOf(r, X, y); mae > 1e-6 {
		t.Errorf("ridge MAE %g on noiseless linear data", mae)
	}
}

func TestKNNRegressorAndClassifier(t *testing.T) {
	X := [][]float64{{0, 0}, {0, 1}, {10, 10}, {10, 11}}
	y := []float64{1, 1, 9, 9}
	r := FitKNNRegressor(X, y, 2)
	if got := r.Predict([]float64{0, 0.5}); got != 1 {
		t.Errorf("knn reg = %f", got)
	}
	c := FitKNNClassifier(X, []int{0, 0, 1, 1}, 3)
	if c.PredictClass([]float64{9, 9}) != 1 {
		t.Error("knn class failed")
	}
}

func TestSVMSeparatesLinearly(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var X [][]float64
	var labels []int
	for i := 0; i < 300; i++ {
		x := []float64{rng.Float64()*2 - 1, rng.Float64()*2 - 1}
		X = append(X, x)
		if x[0]+x[1] > 0.2 {
			labels = append(labels, 1)
		} else {
			labels = append(labels, 0)
		}
	}
	svm := FitSVM(X, labels, SVMConfig{Epochs: 30, Seed: 10})
	wrong := 0
	for i := range X {
		if svm.PredictClass(X[i]) != labels[i] {
			wrong++
		}
	}
	if frac := float64(wrong) / float64(len(X)); frac > 0.08 {
		t.Errorf("svm error rate %f on separable data", frac)
	}
}

func TestSVMMultiClass(t *testing.T) {
	var X [][]float64
	var labels []int
	for i := 0; i < 60; i++ {
		f := float64(i % 3)
		X = append(X, []float64{f*5 + 0.1*float64(i%7), f * 3})
		labels = append(labels, i%3)
	}
	svm := FitSVM(X, labels, SVMConfig{Epochs: 40, Seed: 11})
	acc := 0
	for i := range X {
		if svm.PredictClass(X[i]) == labels[i] {
			acc++
		}
	}
	if acc < 50 {
		t.Errorf("multiclass svm got %d/60", acc)
	}
}

func TestKMeansSeparatesClusters(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	var X [][]float64
	for i := 0; i < 60; i++ {
		base := []float64{0, 0}
		if i%2 == 1 {
			base = []float64{8, 8}
		}
		X = append(X, []float64{base[0] + rng.Float64(), base[1] + rng.Float64()})
	}
	km := FitKMeans(X, 2, 13)
	a0 := km.Assign([]float64{0.5, 0.5})
	a1 := km.Assign([]float64{8.5, 8.5})
	if a0 == a1 {
		t.Error("k-means merged well-separated clusters")
	}
	km1 := FitKMeans(X, 1, 13)
	if km1.Inertia(X) <= km.Inertia(X) {
		t.Error("k=1 inertia should exceed k=2 inertia")
	}
}

func TestKMeansClampsK(t *testing.T) {
	X := [][]float64{{1}, {2}}
	km := FitKMeans(X, 5, 1)
	if len(km.Centroids) != 2 {
		t.Errorf("centroids = %d, want clamped to 2", len(km.Centroids))
	}
}

func TestPCAFindsDominantAxis(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	var X [][]float64
	for i := 0; i < 200; i++ {
		tt := rng.NormFloat64() * 10 // dominant along (1,1)/√2
		n := rng.NormFloat64() * 0.1
		X = append(X, []float64{tt + n, tt - n})
	}
	p := FitPCA(X, 2, 15)
	c := p.Components[0]
	// First component should align with (±1/√2, ±1/√2).
	if math.Abs(math.Abs(c[0])-math.Abs(c[1])) > 0.05 {
		t.Errorf("first PC %v not along the diagonal", c)
	}
	proj := p.Project([]float64{10, 10})
	if math.Abs(proj[0]) < 5 {
		t.Errorf("projection magnitude %f too small", proj[0])
	}
}

func seqData(n int, vocab int, seed int64) []SeqSample {
	// Target: (#token0)*2 + (#token1 followed by token2)  — needs context.
	rng := rand.New(rand.NewSource(seed))
	var out []SeqSample
	for i := 0; i < n; i++ {
		L := 4 + rng.Intn(12)
		toks := make([]int, L)
		for j := range toks {
			toks[j] = rng.Intn(vocab)
		}
		target := 0.0
		for j, tk := range toks {
			if tk == 0 {
				target += 2
			}
			if tk == 1 && j+1 < L && toks[j+1] == 2 {
				target += 5
			}
		}
		out = append(out, SeqSample{Tokens: toks, Target: []float64{target}})
	}
	return out
}

func TestLSTMLearnsContextualCounts(t *testing.T) {
	train := seqData(300, 6, 16)
	test := seqData(100, 6, 17)
	m, loss, _ := TrainLSTMContext(context.Background(), train, LSTMConfig{Vocab: 6, Hidden: 20, Out: 1, Epochs: 40, Seed: 18})
	if math.IsNaN(loss) || math.IsInf(loss, 0) {
		t.Fatalf("training diverged: loss=%f", loss)
	}
	var truth, pred []float64
	for _, s := range test {
		truth = append(truth, s.Target[0])
		pred = append(pred, m.Predict(s.Tokens)[0])
	}
	var num, den float64
	for i := range truth {
		num += math.Abs(truth[i] - pred[i])
		den += truth[i]
	}
	if wmape := num / den; wmape > 0.25 {
		t.Errorf("LSTM WMAPE %f too high", wmape)
	}
}

func TestCNNLearnsLocalPattern(t *testing.T) {
	train := seqData(300, 6, 19)
	m, loss := TrainCNN(train, CNNConfig{Vocab: 6, Filters: 16, Epochs: 30, Seed: 20})
	if math.IsNaN(loss) {
		t.Fatal("CNN diverged")
	}
	// CNN should at least distinguish all-zeros (high) from all-fives (0).
	hi := m.Predict([]int{0, 0, 0, 0, 0, 0})[0]
	lo := m.Predict([]int{5, 5, 5, 5, 5, 5})[0]
	if hi <= lo+2 {
		t.Errorf("CNN hi=%f lo=%f", hi, lo)
	}
}

func TestMLPRegressionAndClassification(t *testing.T) {
	X, y := synthReg(300, 21)
	targets := make([][]float64, len(y))
	for i, v := range y {
		targets[i] = []float64{v}
	}
	m, _ := TrainMLP(X, targets, MLPConfig{Layers: []int{3, 16, 1}, Epochs: 80, Seed: 22, TargetScale: 5})
	if mae := maeOf(m, X, y); mae > 1.5 {
		t.Errorf("MLP regression MAE %f", mae)
	}

	// Classification: two gaussian blobs.
	rng := rand.New(rand.NewSource(23))
	var Xc [][]float64
	var lc []int
	for i := 0; i < 200; i++ {
		c := i % 2
		Xc = append(Xc, []float64{float64(c)*4 + rng.NormFloat64()*0.5, rng.NormFloat64()})
		lc = append(lc, c)
	}
	mc, _ := TrainMLP(Xc, OneHot(lc, 2), MLPConfig{Layers: []int{2, 8, 2}, Epochs: 40, Seed: 24, Classification: true})
	wrong := 0
	for i := range Xc {
		if mc.PredictClass(Xc[i]) != lc[i] {
			wrong++
		}
	}
	if wrong > 10 {
		t.Errorf("MLP classifier wrong on %d/200", wrong)
	}
}

func TestRankerOrdersByQuality(t *testing.T) {
	// Quality = x0 - x1; generate preference pairs from it.
	rng := rand.New(rand.NewSource(25))
	var X [][]float64
	var q []float64
	for i := 0; i < 150; i++ {
		x := []float64{rng.Float64() * 10, rng.Float64() * 10, rng.Float64()}
		X = append(X, x)
		q = append(q, x[0]-x[1])
	}
	var pairs []PrefPair
	for i := 0; i < 600; i++ {
		a, b := rng.Intn(len(X)), rng.Intn(len(X))
		if q[a] > q[b]+0.5 {
			pairs = append(pairs, PrefPair{Better: a, Worse: b})
		}
	}
	r := FitRanker(X, pairs, RankConfig{Trees: 60})
	// Concordance on fresh comparisons.
	good, total := 0, 0
	for i := 0; i < 300; i++ {
		a, b := rng.Intn(len(X)), rng.Intn(len(X))
		if math.Abs(q[a]-q[b]) < 1 {
			continue
		}
		total++
		if (r.Score(X[a]) > r.Score(X[b])) == (q[a] > q[b]) {
			good++
		}
	}
	if frac := float64(good) / float64(total); frac < 0.85 {
		t.Errorf("ranker concordance %f", frac)
	}
	if loss := r.PairLoss(X, pairs); loss > math.Log(2) {
		t.Errorf("pair loss %f above random baseline", loss)
	}
}

func TestAutoMLRegressorPicksReasonably(t *testing.T) {
	X, y := synthReg(200, 27)
	model, res, err := AutoMLRegressor(X, y, 4, 28)
	if err != nil {
		t.Fatal(err)
	}
	if res.Pipeline == "" || math.IsInf(res.CVScore, 1) {
		t.Fatalf("bad automl result: %+v", res)
	}
	if mae := maeOf(model, X, y); mae > 1.5 {
		t.Errorf("automl winner %q MAE %f", res.Pipeline, mae)
	}
}

func TestAutoMLClassifier(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	var X [][]float64
	var l []int
	for i := 0; i < 120; i++ {
		c := i % 2
		X = append(X, []float64{float64(c)*3 + rng.NormFloat64()*0.3})
		l = append(l, c)
	}
	model, res, err := AutoMLClassifier(X, l, 4, 30)
	if err != nil {
		t.Fatal(err)
	}
	if res.CVScore > 0.1 {
		t.Errorf("automl classifier CV error %f (%s)", res.CVScore, res.Pipeline)
	}
	if model.PredictClass([]float64{3}) != 1 {
		t.Error("winner misclassifies an easy point")
	}
}

func TestAutoMLErrors(t *testing.T) {
	if _, _, err := AutoMLRegressor([][]float64{{1}}, []float64{1}, 5, 1); err == nil {
		t.Error("too-few samples accepted")
	}
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	params := []float64{5, -3}
	opt := NewAdam(2, 0.1, 0)
	grads := make([]float64, 2)
	for i := 0; i < 500; i++ {
		grads[0] = 2 * (params[0] - 1)
		grads[1] = 2 * (params[1] - 2)
		opt.Step(params, grads)
	}
	if math.Abs(params[0]-1) > 0.05 || math.Abs(params[1]-2) > 0.05 {
		t.Errorf("Adam did not converge: %v", params)
	}
}

func TestDeterministicTraining(t *testing.T) {
	X, y := synthReg(100, 31)
	g1 := FitGBDT(X, y, GBDTConfig{Trees: 20})
	g2 := FitGBDT(X, y, GBDTConfig{Trees: 20})
	for i := 0; i < 10; i++ {
		if g1.Predict(X[i]) != g2.Predict(X[i]) {
			t.Fatal("GBDT training not deterministic")
		}
	}
	s := seqData(40, 5, 33)
	m1, _, _ := TrainLSTMContext(context.Background(), s, LSTMConfig{Vocab: 5, Hidden: 8, Epochs: 3, Seed: 34})
	m2, _, _ := TrainLSTMContext(context.Background(), s, LSTMConfig{Vocab: 5, Hidden: 8, Epochs: 3, Seed: 34})
	if m1.Predict(s[0].Tokens)[0] != m2.Predict(s[0].Tokens)[0] {
		t.Fatal("LSTM training not deterministic")
	}
}

func TestLSTMGradientCheck(t *testing.T) {
	// Numerical gradient check on a tiny model.
	cfg := LSTMConfig{Vocab: 3, Hidden: 4, Out: 1, Seed: 35, TargetScale: 1}
	m := NewLSTM(cfg)
	sample := SeqSample{Tokens: []int{0, 2, 1}, Target: []float64{3}}
	grads := make([]float64, len(m.params))
	steps, y := m.forward(sample.Tokens)
	m.backward(steps, y, sample.Target, grads)
	lossAt := func() float64 {
		_, y := m.forward(sample.Tokens)
		d := y[0] - sample.Target[0]
		return 0.5 * d * d
	}
	const h = 1e-5
	checked := 0
	for _, pi := range []int{0, 5, m.oWh + 3, m.oB + 1, m.oWo, m.oBo} {
		orig := m.params[pi]
		m.params[pi] = orig + h
		lp := lossAt()
		m.params[pi] = orig - h
		lm := lossAt()
		m.params[pi] = orig
		num := (lp - lm) / (2 * h)
		if math.Abs(num-grads[pi]) > 1e-4*(1+math.Abs(num)) {
			t.Errorf("param %d: numeric %g vs analytic %g", pi, num, grads[pi])
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no parameters checked")
	}
}
