package core

import (
	"context"
	"fmt"
	"math"

	"clara/internal/ir"
	"clara/internal/lang"
	"clara/internal/ml"
	"clara/internal/niccc"
	"clara/internal/nicsim"
	"clara/internal/par"
	"clara/internal/synth"
	"clara/internal/traffic"
)

// This file implements multicore scale-out analysis (§4.2). Following the
// TVM-inspired recipe, Clara synthesizes training programs spanning a wide
// range of arithmetic intensities, deploys them to the (simulated) NIC
// under different "schedules" (core counts) and workloads, and fits a GBDT
// regressor from static + workload features to the measured knee.

// ScaleoutConfig controls training. Training programs are measured on up
// to GOMAXPROCS goroutines; the dataset is identical for any GOMAXPROCS.
type ScaleoutConfig struct {
	TrainPrograms   int
	PacketsPerTrace int
	CoreGrid        []int
	Workloads       []traffic.Spec
	Params          nicsim.Params
	Seed            int64
}

func (c ScaleoutConfig) norm() ScaleoutConfig {
	if c.TrainPrograms == 0 {
		c.TrainPrograms = 48
	}
	if c.PacketsPerTrace == 0 {
		c.PacketsPerTrace = 1500
	}
	if len(c.CoreGrid) == 0 {
		c.CoreGrid = nicsim.DefaultCoreSweep
	}
	if len(c.Workloads) == 0 {
		c.Workloads = []traffic.Spec{traffic.LargeFlows, traffic.SmallFlows}
	}
	if c.Params.NumCores == 0 {
		c.Params = nicsim.DefaultParams()
	}
	return c
}

// ScaleoutFeatures builds the model input for one (NF, workload): the
// predicted compute/memory parameters from §3, the host access profile,
// state footprint, and the workload spec.
func ScaleoutFeatures(pred *ModulePrediction, prof *HostProfile, wl traffic.Spec, stateBytes int) []float64 {
	accessesPerPkt := prof.AccessesPerPacket
	compute := pred.TotalCompute + float64(pred.TotalAPI)
	mem := float64(pred.TotalMem)
	ai := compute / (accessesPerPkt + 1)
	return []float64{
		compute,
		mem,
		accessesPerPkt,
		ai,
		math.Log2(float64(stateBytes) + 1),
		math.Log2(float64(wl.NumFlows) + 1),
		float64(wl.PktSize) / 64,
	}
}

// ScaleoutSample is one training observation.
type ScaleoutSample struct {
	Features []float64
	Optimal  int // knee core count measured by sweeping
}

// ScaleoutModel predicts near-optimal core counts.
type ScaleoutModel struct {
	cfg  ScaleoutConfig
	gbdt *ml.GBDT
	// Train is the training set, retained so the evaluation can fit
	// baseline models (kNN/DNN/AutoML) on identical data (§5.4).
	Train []ScaleoutSample
}

// BuildScaleoutDatasetContext measures knee core counts for synthesized
// programs across workloads. Cancellation is checked once per training
// program (each program is a bounded profile-and-sweep unit of a few
// milliseconds). Programs are generated, profiled, and swept in parallel;
// each is derived from a per-index seed and lands in its index's slot, so
// the dataset is identical — in content and order — for any GOMAXPROCS.
func BuildScaleoutDatasetContext(ctx context.Context, cfg ScaleoutConfig, pred *Predictor) ([]ScaleoutSample, error) {
	cfg = cfg.norm()
	perProg := make([][]ScaleoutSample, cfg.TrainPrograms)
	err := par.ForErr(ctx, cfg.TrainPrograms, func(i int) error {
		// Span arithmetic intensities: bias state and compute rates.
		bias := synth.Config{
			Profile:     synth.UniformProfile(),
			Seed:        cfg.Seed + int64(i)*13,
			StateBias:   0.25 + 4*float64(i%5)/4,
			ComputeBias: 0.5 + 2*float64(i%3)/2,
		}
		mod, _, err := synth.GenerateModule(bias, lang.Compile)
		if err != nil {
			return err
		}
		samples, err := MeasureScaleout(mod, ProfileSetup{}, cfg, pred)
		if err != nil {
			return err
		}
		perProg[i] = samples
		return nil
	})
	if err != nil {
		return nil, err
	}
	var out []ScaleoutSample
	for _, s := range perProg {
		out = append(out, s...)
	}
	return out, nil
}

// MeasureScaleout sweeps core counts for one module under the configured
// workloads, returning one sample per workload.
func MeasureScaleout(mod *ir.Module, ps ProfileSetup, cfg ScaleoutConfig, pred *Predictor) ([]ScaleoutSample, error) {
	cfg = cfg.norm()
	mp, err := pred.PredictModule(mod, niccc.AccelConfig{})
	if err != nil {
		return nil, err
	}
	stateBytes := 0
	for _, g := range mod.Globals {
		stateBytes += g.SizeBytes()
	}
	var out []ScaleoutSample
	for _, wl := range cfg.Workloads {
		prof, err := ProfileOnHost(mod, ps, wl, cfg.PacketsPerTrace/2)
		if err != nil {
			return nil, err
		}
		nf := &nicsim.NF{Name: mod.Name, Mod: mod, LPMTable: ps.LPMTable, Setup: ps.Setup}
		built, err := nf.Build(cfg.Params)
		if err != nil {
			return nil, err
		}
		ts, err := nicsim.GenTraces(built, wl, cfg.PacketsPerTrace, cfg.Params)
		if err != nil {
			return nil, err
		}
		rs, err := nicsim.SweepCores(cfg.Params, ts, cfg.CoreGrid)
		if err != nil {
			return nil, err
		}
		out = append(out, ScaleoutSample{
			Features: ScaleoutFeatures(mp, prof, wl, stateBytes),
			Optimal:  nicsim.KneeCores(rs),
		})
	}
	return out, nil
}

// TrainScaleout builds the dataset and fits the GBDT cost model.
func TrainScaleout(cfg ScaleoutConfig, pred *Predictor) (*ScaleoutModel, error) {
	return TrainScaleoutContext(context.Background(), cfg, pred)
}

// TrainScaleoutContext is TrainScaleout with cancellation (threaded
// through dataset construction, the dominant cost).
func TrainScaleoutContext(ctx context.Context, cfg ScaleoutConfig, pred *Predictor) (*ScaleoutModel, error) {
	cfg = cfg.norm()
	data, err := BuildScaleoutDatasetContext(ctx, cfg, pred)
	if err != nil {
		return nil, err
	}
	if len(data) < 8 {
		return nil, fmt.Errorf("core: scale-out training set too small (%d)", len(data))
	}
	X := make([][]float64, len(data))
	y := make([]float64, len(data))
	for i, s := range data {
		X[i] = s.Features
		y[i] = float64(s.Optimal)
	}
	g := ml.FitGBDT(X, y, ml.GBDTConfig{Trees: 120, MaxDepth: 4, LR: 0.08})
	return &ScaleoutModel{cfg: cfg, gbdt: g, Train: data}, nil
}

// Suggest predicts the core count for an NF and workload from its features.
func (sm *ScaleoutModel) Suggest(features []float64) int {
	v := sm.gbdt.Predict(features)
	c := int(math.Round(v))
	if c < 1 {
		c = 1
	}
	if c > sm.cfg.Params.NumCores {
		c = sm.cfg.Params.NumCores
	}
	return c
}

// SuggestForNF runs the full pipeline for a concrete NF: predict (§3),
// profile on the host, featurize, and query the cost model. accel reflects
// the porting decisions already applied to the NF.
func (sm *ScaleoutModel) SuggestForNF(mod *ir.Module, ps ProfileSetup, wl traffic.Spec, pred *Predictor, accel niccc.AccelConfig) (int, error) {
	mp, err := pred.PredictModule(mod, accel)
	if err != nil {
		return 0, err
	}
	prof, err := ProfileOnHost(mod, ps, wl, 600)
	if err != nil {
		return 0, err
	}
	stateBytes := 0
	for _, g := range mod.Globals {
		stateBytes += g.SizeBytes()
	}
	return sm.Suggest(ScaleoutFeatures(mp, prof, wl, stateBytes)), nil
}
