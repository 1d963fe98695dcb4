package core

import (
	"context"
	"fmt"
	"math"

	"clara/internal/ir"
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

// Knees is the half of the scale-out training set that needs no
// predictor: the synthesized training programs and, for each (program,
// workload) pair in program-major, workload-minor order, its host profile
// and the knee core count measured by sweeping.
type Knees struct {
	cfg   ScaleoutConfig
	mods  []*ir.Module
	profs []*HostProfile
	knees []int
}

// MeasureKnees synthesizes the training programs, then profiles, traces
// and sweeps every (program, workload) pair as its own parallel unit.
// Cancellation is checked once per unit and inside host profiling. Each
// program derives from a per-index seed and each pair lands in its index's
// slot, so the result is identical — in content and order — for any
// GOMAXPROCS.
//
// A pair's trace is dead once its sweep is done, so its event buffer goes
// to a free list and the next pair traces into it. The list lives for
// this call only: a second training starts as cold as the first. A pair's
// NIC machine is dead once its trace is, so its state goes back to the
// interpreter's slabs for the next pair to build on.
func MeasureKnees(ctx context.Context, cfg ScaleoutConfig) (*Knees, error) {
	cfg = cfg.norm()
	mods, err := kneePrograms(ctx, cfg)
	if err != nil {
		return nil, err
	}
	nw := len(cfg.Workloads)
	k := &Knees{cfg: cfg, mods: mods, profs: make([]*HostProfile, len(mods)*nw), knees: make([]int, len(mods)*nw)}
	free := make(chan []nicsim.Event, len(k.knees)) // never full: no put blocks
	err = par.ForErr(ctx, len(k.knees), func(u int) error {
		mod, wl := mods[u/nw], cfg.Workloads[u%nw]
		prof, err := ProfileOnHostContext(ctx, mod, ProfileSetup{}, wl, cfg.PacketsPerTrace/2)
		if err != nil {
			return err
		}
		built, err := (&nicsim.NF{Name: mod.Name, Mod: mod}).Build(cfg.Params)
		if err != nil {
			return err
		}
		var buf []nicsim.Event
		select {
		case buf = <-free:
		default:
		}
		ts, err := nicsim.GenTracesInto(buf, built, wl, cfg.PacketsPerTrace, cfg.Params)
		built.Machine.Release()
		if err != nil {
			return err
		}
		rs, err := nicsim.SweepCores(cfg.Params, ts, cfg.CoreGrid)
		if err != nil {
			return err
		}
		free <- ts.Events
		k.profs[u], k.knees[u] = prof, nicsim.KneeCores(rs)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return k, nil
}

// kneePrograms synthesizes the scale-out training programs, spanning
// arithmetic intensities by biasing state and compute rates per index.
func kneePrograms(ctx context.Context, cfg ScaleoutConfig) ([]*ir.Module, error) {
	mods := make([]*ir.Module, cfg.TrainPrograms)
	err := par.ForErr(ctx, len(mods), func(i int) error {
		// Span arithmetic intensities: bias state and compute rates.
		bias := synth.Config{
			Profile:     synth.UniformProfile(),
			Seed:        cfg.Seed + int64(i)*13,
			StateBias:   0.25 + 4*float64(i%5)/4,
			ComputeBias: 0.5 + 2*float64(i%3)/2,
		}
		mod, _, err := synth.GenerateModule(bias)
		mods[i] = mod
		return err
	})
	return mods, err
}

// FitScaleout is the half that needs the predictor: it featurizes every
// measured pair with its program's §3 prediction and fits the GBDT cost
// model to the knees.
func FitScaleout(k *Knees, pred *Predictor) (*ScaleoutModel, error) {
	if len(k.knees) < 8 {
		return nil, fmt.Errorf("core: scale-out training set too small (%d)", len(k.knees))
	}
	mps, err := pred.PredictModules(k.mods, niccc.AccelConfig{})
	if err != nil {
		return nil, err
	}
	nw := len(k.cfg.Workloads)
	data := make([]ScaleoutSample, len(k.knees))
	X := make([][]float64, len(data))
	y := make([]float64, len(data))
	for u, knee := range k.knees {
		stateBytes := 0
		for _, g := range k.mods[u/nw].Globals {
			stateBytes += g.SizeBytes()
		}
		X[u] = ScaleoutFeatures(mps[u/nw], k.profs[u], k.cfg.Workloads[u%nw], stateBytes)
		y[u] = float64(knee)
		data[u] = ScaleoutSample{Features: X[u], Optimal: knee}
	}
	g := ml.FitGBDT(X, y, ml.GBDTConfig{Trees: 120, MaxDepth: 4, LR: 0.08})
	return &ScaleoutModel{cfg: k.cfg, gbdt: g, Train: data}, nil
}

// TrainScaleout measures the knees and fits the GBDT cost model.
func TrainScaleout(cfg ScaleoutConfig, pred *Predictor) (*ScaleoutModel, error) {
	return TrainScaleoutContext(context.Background(), cfg, pred)
}

// TrainScaleoutContext is TrainScaleout with cancellation (threaded
// through knee measurement, the dominant cost).
func TrainScaleoutContext(ctx context.Context, cfg ScaleoutConfig, pred *Predictor) (*ScaleoutModel, error) {
	k, err := MeasureKnees(ctx, cfg)
	if err != nil {
		return nil, err
	}
	return FitScaleout(k, pred)
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
