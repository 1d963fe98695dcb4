package experiments

import (
	"fmt"
	"math"

	"clara/internal/click"
	"clara/internal/core"
	"clara/internal/interp"
	"clara/internal/lang"
	"clara/internal/ml"
	"clara/internal/nicsim"
	"clara/internal/stats"
	"clara/internal/synth"
	"clara/internal/traffic"
)

// Figure9 reproduces the algorithm-identification comparison: precision
// and recall of Clara's SVM against AutoML, kNN, DNN, DT and GBDT on a
// held-out corpus (§5.3).
func Figure9(ctx *Context) (*Table, error) {
	id, err := ctx.AlgoID()
	if err != nil {
		return nil, err
	}
	test := synth.AlgoCorpus(ctx.scale.algoTest, ctx.Cfg.Seed+31337)

	// Shared feature sets for the baselines: the same mined-subsequence +
	// manual features Clara's SVM consumes.
	Xtr, ytr, err := id.FeatureDataset(core.AlgoTrainCorpus(ctx.scale.algoBaselineTrain, ctx.Cfg.Seed))
	if err != nil {
		return nil, err
	}
	Xte, yte, err := id.FeatureDataset(test)
	if err != nil {
		return nil, err
	}

	t := &Table{
		ID:     "figure9",
		Title:  "Algorithm identification precision/recall",
		Header: []string{"model", "precision", "recall"},
	}

	evalPreds := func(preds []int) (float64, float64) {
		return stats.PrecisionRecall(yte, preds)
	}

	// Clara (SVM over summary features + structural prior).
	var claraPred []int
	for _, p := range test {
		m, err := lang.Compile(p.Name, p.Src)
		if err != nil {
			return nil, err
		}
		claraPred = append(claraPred, id.Classify(m))
	}
	cp, cr := evalPreds(claraPred)
	t.AddRow("Clara(SVM)", pct(cp), pct(cr))

	run := func(name string, model ml.Classifier) {
		preds := make([]int, len(Xte))
		for i := range Xte {
			preds[i] = model.PredictClass(Xte[i])
		}
		p, r := evalPreds(preds)
		t.AddRow(name, pct(p), pct(r))
	}
	auto, autoRes, err := ml.AutoMLClassifier(Xtr, ytr, 4, ctx.Cfg.Seed+41)
	if err != nil {
		return nil, err
	}
	run("AutoML", auto)
	run("kNN", ml.FitKNNClassifier(Xtr, ytr, 5))
	dnn, _ := ml.TrainMLP(Xtr, ml.OneHot(ytr, 3), ml.MLPConfig{
		Layers: []int{len(Xtr[0]), 24, 3}, Epochs: 40, Seed: ctx.Cfg.Seed + 42, Classification: true,
	})
	run("DNN", dnn)
	run("DT", ml.FitTreeClassifier(Xtr, ytr, ml.TreeConfig{MaxDepth: 8}))
	run("GBDT", ml.FitGBDTClassifier(Xtr, ytr, ml.GBDTConfig{Trees: 40}))

	t.Notef("paper: Clara precision 96.6%%, recall 83.3%%; other models on par (distinct features)")
	t.Notef("AutoML selected: %s", autoRes.Pipeline)
	return t, nil
}

// Figure10a reproduces the PCA view: the two leading principal components
// of the classifier features separate positive and negative examples.
func Figure10a(ctx *Context) (*Table, error) {
	id, err := ctx.AlgoID()
	if err != nil {
		return nil, err
	}
	X, y, err := id.FeatureDataset(synth.AlgoCorpus(ctx.scale.pcaCorpus, ctx.Cfg.Seed+555))
	if err != nil {
		return nil, err
	}
	pca := ml.FitPCA(X, 2, ctx.Cfg.Seed)
	// Quantify separation: distance between class centroids in PC space
	// relative to within-class spread.
	var sum, cent [3][2]float64
	var count [3]float64
	proj := make([][]float64, len(X))
	for i, x := range X {
		proj[i] = pca.Project(x)
		sum[y[i]][0] += proj[i][0]
		sum[y[i]][1] += proj[i][1]
		count[y[i]]++
	}
	for c := range cent {
		cent[c] = [2]float64{sum[c][0] / count[c], sum[c][1] / count[c]}
	}
	var spread float64
	for i, p := range proj {
		dx := p[0] - cent[y[i]][0]
		dy := p[1] - cent[y[i]][1]
		spread += dx*dx + dy*dy
	}
	spread /= float64(len(proj))

	t := &Table{
		ID:     "figure10a",
		Title:  "PCA separation of algorithm-ID features (class centroids in PC1/PC2)",
		Header: []string{"class", "centroid PC1", "centroid PC2", "count"},
	}
	for c, name := range []string{"none", "CRC", "LPM"} {
		if count[c] > 0 {
			t.AddRow(name, f2(cent[c][0]), f2(cent[c][1]), fmt.Sprintf("%d", int(count[c])))
		}
	}
	// Pairwise centroid separation vs within-class spread.
	minSep := math.Inf(1)
	for i := range cent {
		for j := i + 1; j < len(cent); j++ {
			dx, dy := cent[i][0]-cent[j][0], cent[i][1]-cent[j][1]
			minSep = min(minSep, dx*dx+dy*dy)
		}
	}
	t.Notef("min centroid separation / mean within-class spread = %.2f (>1 means visibly separated clusters)", minSep/spread)
	return t, nil
}

// Figure10b reproduces the CRC-accelerator benefit: cmsketch and wepdecap
// under naive porting vs Clara's engine port (§5.3: throughput up to 1.6x,
// latency −25%).
func Figure10b(ctx *Context) (*Table, error) {
	params := ctx.Cfg.Params
	n := ctx.scale.simPkts
	cores := 16
	wl := traffic.MediumMix

	t := &Table{
		ID:     "figure10b",
		Title:  "CRC accelerator: naive port vs Clara port",
		Header: []string{"NF", "port", "throughput(Mpps)", "latency(us)"},
	}
	pairs := [][2]string{{"cmsketch", "cmsketch_crc"}, {"wepdecap", "wepdecap_crc"}}
	for _, pair := range pairs {
		naive, err := runNF(params, elementNF(pair[0], nil), wl, n, cores)
		if err != nil {
			return nil, err
		}
		accel, err := runNF(params, elementNF(pair[1], func(nf *nicsim.NF) {
			nf.Accel.CRCEngine = true
		}), wl, n, cores)
		if err != nil {
			return nil, err
		}
		t.AddRow(pair[0], "naive", f2(naive.ThroughputMpps), f2(naive.AvgLatencyUs))
		t.AddRow(pair[0], "Clara(CRC engine)", f2(accel.ThroughputMpps), f2(accel.AvgLatencyUs))
		t.Notef("%s: throughput %.2fx, latency %+.0f%%", pair[0],
			accel.ThroughputMpps/naive.ThroughputMpps,
			100*(accel.AvgLatencyUs-naive.AvgLatencyUs)/naive.AvgLatencyUs)
	}
	t.Notef("paper: peak throughput up to 1.6x, latency down up to 25%%")
	return t, nil
}

// Figure10c reproduces the LPM-accelerator sweep: iplookup naive (software
// trie) vs Clara port (LPM engine + flow cache) across rule-table sizes
// (§5.3: roughly one order of magnitude).
func Figure10c(ctx *Context) (*Table, error) {
	params := ctx.Cfg.Params
	n := ctx.scale.tracePkts
	cores := 16
	wl := traffic.MediumMix

	t := &Table{
		ID:     "figure10c",
		Title:  "LPM accelerator sweep over rule-table size",
		Header: []string{"rules", "naive Th", "naive Lat", "Clara Th", "Clara Lat", "lat ratio"},
	}
	for _, rules := range ctx.scale.lpmRules {
		routes := click.GenRoutes(rules, 41)
		naiveNF := elementNF("iplookup", func(nf *nicsim.NF) {
			nf.Setup = func(m *interp.Machine) error {
				return click.InstallTrie(m, routes, "trie_left", "trie_right", "trie_port", 65536)
			}
		})
		naive, err := runNF(params, naiveNF, wl, n, cores)
		if err != nil {
			return nil, err
		}
		accelNF := elementNF("iplookup_lpm", func(nf *nicsim.NF) {
			nf.LPMTable = routes
			nf.Accel.LPMEngine = true
			nf.Accel.FlowCache = true
			nf.Accel.CsumEngine = true
		})
		accel, err := runNF(params, accelNF, wl, n, cores)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%d", rules),
			f2(naive.ThroughputMpps), f2(naive.AvgLatencyUs),
			f2(accel.ThroughputMpps), f2(accel.AvgLatencyUs),
			fmt.Sprintf("%.1fx", naive.AvgLatencyUs/accel.AvgLatencyUs))
	}
	t.Notef("paper: throughput up and latency down by roughly one order of magnitude")
	return t, nil
}
