package experiments

import (
	"fmt"

	"clara/internal/ml"
	"clara/internal/niccc"
	"clara/internal/nicsim"
	"clara/internal/stats"
	"clara/internal/traffic"
)

// complexNFs are the four largest NFs used by §5.4–§5.7.
var complexNFs = []string{"mazunat", "dnsproxy", "webgen", "udpcount"}

// portedNF builds a complex NF with the porting insights already applied
// that §5.4 presumes (checksum on the ingress engine); scale-out analysis
// then studies the ported program, as the paper does.
func portedNF(name string) *nicsim.NF {
	return elementNF(name, func(nf *nicsim.NF) { nf.Accel.CsumEngine = true })
}

// coreSweep is a ported complex NF measured at every core count of the
// default sweep under wl: figure11b's optimum, figure11cd's and
// figure11ef's curves.
func coreSweep(ctx *Context, name string, wl traffic.Spec) ([]nicsim.Result, error) {
	return stage(ctx.stages, "sweep/"+name+"/"+wl.Name, func() ([]nicsim.Result, error) {
		return sweepNF(ctx.Cfg.Params, portedNF(name), wl, ctx.scale.sweepPkts)
	})
}

// suggestedCores is Clara's core-count suggestion for a ported complex NF
// under large flows (figure11b, figure11ef).
func suggestedCores(ctx *Context, name string) (int, error) {
	return stage(ctx.stages, "suggest/"+name, func() (int, error) {
		sm, err := ctx.Scaleout()
		if err != nil {
			return 0, err
		}
		pred, err := ctx.Predictor()
		if err != nil {
			return 0, err
		}
		return sm.SuggestForNF(portedNF(name).Mod, profileSetup(name), traffic.LargeFlows, pred,
			niccc.AccelConfig{CsumEngine: true})
	})
}

// Figure11a reproduces the model comparison for core-count prediction:
// MAE (in cores) of Clara's GBDT vs AutoML, kNN and DNN on the scale-out
// dataset (§5.4).
func Figure11a(ctx *Context) (*Table, error) {
	sm, err := ctx.Scaleout()
	if err != nil {
		return nil, err
	}
	// Held-out split: every fourth sample tests.
	var trX, teX, targets [][]float64
	var trY, teY []float64
	for i, s := range sm.Train {
		if i%4 == 3 {
			teX = append(teX, s.Features)
			teY = append(teY, float64(s.Optimal))
		} else {
			trX = append(trX, s.Features)
			trY = append(trY, float64(s.Optimal))
			targets = append(targets, []float64{float64(s.Optimal)})
		}
	}
	mae := func(m ml.Regressor) string {
		var preds []float64
		for _, x := range teX {
			preds = append(preds, m.Predict(x))
		}
		return f2(stats.MAE(teY, preds))
	}

	t := &Table{
		ID:     "figure11a",
		Title:  "Core-count prediction MAE (cores), Clara(GBDT) vs baselines",
		Header: []string{"model", "MAE(cores)"},
	}
	gb := ml.FitGBDT(trX, trY, ml.GBDTConfig{Trees: 120, MaxDepth: 4, LR: 0.08})
	t.AddRow("Clara(GBDT)", mae(gb))
	auto, autoRes, err := ml.AutoMLRegressor(trX, trY, 4, ctx.Cfg.Seed+51)
	if err != nil {
		return nil, err
	}
	t.AddRow("AutoML", mae(auto))
	t.AddRow("kNN", mae(ml.FitKNNRegressor(trX, trY, 3)))
	dnn, _ := ml.TrainMLP(trX, targets, ml.MLPConfig{
		Layers: []int{len(trX[0]), 24, 1}, Epochs: 80, Seed: ctx.Cfg.Seed + 52, TargetScale: 10,
	})
	t.AddRow("DNN", mae(dnn))
	t.Notef("paper Figure 11(a): GBDT lowest MAE, AutoML picks GBDT with different parameters")
	t.Notef("AutoML selected: %s", autoRes.Pipeline)
	return t, nil
}

// Figure11b reproduces the suggested-vs-optimal core counts for the four
// most complex NFs (§5.4: deviations of 1–6%).
func Figure11b(ctx *Context) (*Table, error) {
	t := &Table{
		ID:     "figure11b",
		Title:  "Suggested vs optimal core counts (large flows)",
		Header: []string{"NF", "Clara", "optimal", "deviation"},
	}
	var devs []float64
	for _, name := range complexNFs {
		// Optimal by exhaustive sweep.
		rs, err := coreSweep(ctx, name, traffic.LargeFlows)
		if err != nil {
			return nil, err
		}
		optimal := nicsim.KneeCores(rs)
		suggested, err := suggestedCores(ctx, name)
		if err != nil {
			return nil, err
		}
		dev := float64(abs(suggested-optimal)) / float64(ctx.Cfg.Params.NumCores)
		devs = append(devs, dev)
		t.AddRow(name, fmt.Sprintf("%d", suggested), fmt.Sprintf("%d", optimal), pct(dev))
	}
	t.Notef("mean deviation %s of the 60-core budget (paper: 1–6%%)", pct(stats.Mean(devs)))
	return t, nil
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// Figure11cd reproduces the throughput/latency-ratio curves against core
// count under large-flow and small-flow workloads (§5.4).
func Figure11cd(ctx *Context) (*Table, error) {
	t := &Table{
		ID:     "figure11cd",
		Title:  "Throughput/latency ratio vs cores (large and small flows)",
		Header: []string{"NF", "workload"},
	}
	for _, c := range nicsim.DefaultCoreSweep {
		t.Header = append(t.Header, fmt.Sprintf("c%d", c))
	}
	knees := make([][2]int, len(complexNFs)) // large flows, small flows
	maxGain := 0.0
	for i, name := range complexNFs {
		for w, wl := range []traffic.Spec{traffic.LargeFlows, traffic.SmallFlows} {
			rs, err := coreSweep(ctx, name, wl)
			if err != nil {
				return nil, err
			}
			row := []string{name, wl.Name}
			bestRatio, allRatio := 0.0, 0.0
			for _, r := range rs {
				row = append(row, f2(r.Ratio()))
				bestRatio = max(bestRatio, r.Ratio())
				if r.Cores == ctx.Cfg.Params.NumCores {
					allRatio = r.Ratio()
				}
			}
			if allRatio > 0 {
				maxGain = max(maxGain, bestRatio/allRatio-1)
			}
			t.AddRow(row...)
			knees[i][w] = nicsim.KneeCores(rs)
		}
	}
	earlier := 0
	for i, name := range complexNFs {
		k := knees[i]
		t.Notef("%s: ratio peaks at %d cores (large flows) vs %d (small flows)", name, k[0], k[1])
		if k[0] <= k[1] {
			earlier++
		}
	}
	t.Notef("%d/%d NFs peak earlier (or equal) under large flows (paper: larger flows peak earlier)", earlier, len(complexNFs))
	t.Notef("optimal core counts beat naively using all 60 cores by up to %s on Th/Lat ratio (paper: up to 71.1%%)", pct(maxGain))
	return t, nil
}

// Figure11ef reproduces the detailed MazuNAT and WebGen curves: absolute
// throughput and latency per core count with Clara's suggestion marked.
func Figure11ef(ctx *Context) (*Table, error) {
	t := &Table{
		ID:     "figure11ef",
		Title:  "MazuNAT / WebGen detail curves (large flows)",
		Header: []string{"NF", "cores", "throughput(Mpps)", "latency(us)", "ratio"},
	}
	detailNFs := []string{"mazunat", "webgen"}
	naiveGain := make([]float64, len(detailNFs))
	for i, name := range detailNFs {
		rs, err := coreSweep(ctx, name, traffic.LargeFlows)
		if err != nil {
			return nil, err
		}
		suggested, err := suggestedCores(ctx, name)
		if err != nil {
			return nil, err
		}
		var atAll, best nicsim.Result
		for _, r := range rs {
			mark := ""
			if r.Cores == nearestCore(suggested) {
				mark = "  <- Clara suggests"
			}
			t.AddRow(name, fmt.Sprintf("%d%s", r.Cores, mark),
				f2(r.ThroughputMpps), f2(r.AvgLatencyUs), f2(r.Ratio()))
			if r.Cores == ctx.Cfg.Params.NumCores {
				atAll = r
			}
			if r.Ratio() > best.Ratio() {
				best = r
			}
		}
		naiveGain[i] = best.Ratio()/atAll.Ratio() - 1
	}
	for i, name := range detailNFs {
		t.Notef("%s: optimal operating point beats all-60-cores by %s on Th/Lat ratio (paper: up to 71.1%%)", name, pct(naiveGain[i]))
	}
	return t, nil
}

func nearestCore(c int) int {
	best, bd := nicsim.DefaultCoreSweep[0], 1<<30
	for _, s := range nicsim.DefaultCoreSweep {
		d := abs(s - c)
		if d < bd {
			bd = d
			best = s
		}
	}
	return best
}
