package experiments

import (
	"math"

	"clara/internal/click"
	"clara/internal/core"
	"clara/internal/nicsim"
	"clara/internal/stats"
	"clara/internal/traffic"
)

// Placement is measured under small flows at an operating point below the
// ingress ceiling, where placement headroom translates into throughput (the
// paper's ports are far from line rate on the tested NFs).
const placementCores = 10

// placementRun measures one NF under a given placement.
func placementRun(ctx *Context, name string, pl nicsim.Placement) (nicsim.Result, error) {
	return runNF(ctx.Cfg.Params, elementNF(name, func(nf *nicsim.NF) {
		nf.Placement = pl
	}), traffic.SmallFlows, ctx.scale.simPkts, placementCores)
}

// claraPlacement is a complex NF measured under the placement Clara's ILP
// suggests from its host profile (figure12, figure15).
func claraPlacement(ctx *Context, name string) (nicsim.Result, error) {
	return stage(ctx.stages, "placement/"+name, func() (nicsim.Result, error) {
		mod := click.Get(name).MustModule()
		prof, err := core.ProfileOnHost(mod, profileSetup(name), traffic.SmallFlows, ctx.scale.profilePkts)
		if err != nil {
			return nicsim.Result{}, err
		}
		pl, err := core.SuggestPlacement(mod, prof, ctx.Cfg.Params)
		if err != nil {
			return nicsim.Result{}, err
		}
		return placementRun(ctx, name, pl)
	})
}

// Figure12 reproduces the NF state placement evaluation: Clara's ILP
// placement vs the naive all-EMEM baseline on the four complex NFs under
// small flows (§5.5: latency −33% and throughput +89% on average).
func Figure12(ctx *Context) (*Table, error) {
	t := &Table{
		ID:     "figure12",
		Title:  "NF state placement: Clara(ILP) vs naive(all-EMEM), small flows",
		Header: []string{"NF", "port", "throughput(Mpps)", "latency(us)"},
	}
	var latGain, thGain []float64
	for _, name := range complexNFs {
		naive, err := placementRun(ctx, name, core.NaivePlacement(click.Get(name).MustModule()))
		if err != nil {
			return nil, err
		}
		clara, err := claraPlacement(ctx, name)
		if err != nil {
			return nil, err
		}
		t.AddRow(name, "naive", f2(naive.ThroughputMpps), f2(naive.AvgLatencyUs))
		t.AddRow(name, "Clara", f2(clara.ThroughputMpps), f2(clara.AvgLatencyUs))
		latGain = append(latGain, 1-clara.AvgLatencyUs/naive.AvgLatencyUs)
		thGain = append(thGain, clara.ThroughputMpps/naive.ThroughputMpps-1)
	}
	t.Notef("average latency reduction %s (paper: 33%%); average throughput gain %s (paper: 89%%)",
		pct(stats.Mean(latGain)), pct(stats.Mean(thGain)))
	return t, nil
}

// Figure15 reproduces the expert-emulation comparison for placement:
// Clara's ILP vs an exhaustive sweep over per-structure placements (§5.8:
// Clara's latency up to 9.7% higher, throughput up to 7.6% lower).
func Figure15(ctx *Context) (*Table, error) {
	t := &Table{
		ID:     "figure15",
		Title:  "Placement: Clara(ILP) vs expert (exhaustive sweep), small flows",
		Header: []string{"NF", "port", "throughput(Mpps)", "latency(us)"},
	}
	var worstLat, worstTh float64
	for _, name := range complexNFs {
		clara, err := claraPlacement(ctx, name)
		if err != nil {
			return nil, err
		}

		// Expert: measure every feasible candidate, keep the best ratio.
		cands := core.PlacementCandidates(click.Get(name).MustModule(), ctx.Cfg.Params)
		if n := ctx.scale.expertPlacements; n > 0 && len(cands) > n {
			cands = cands[:n]
		}
		best := nicsim.Result{}
		bestScore := math.Inf(-1)
		for _, cand := range cands {
			r, err := placementRun(ctx, name, cand)
			if err != nil {
				return nil, err
			}
			if s := r.Ratio(); s > bestScore {
				bestScore = s
				best = r
			}
		}
		t.AddRow(name, "Clara", f2(clara.ThroughputMpps), f2(clara.AvgLatencyUs))
		t.AddRow(name, "expert", f2(best.ThroughputMpps), f2(best.AvgLatencyUs))
		worstLat = max(worstLat, clara.AvgLatencyUs/best.AvgLatencyUs-1)
		worstTh = max(worstTh, 1-clara.ThroughputMpps/best.ThroughputMpps)
	}
	t.Notef("Clara latency up to %s higher, throughput up to %s lower than exhaustive (paper: 9.7%% / 7.6%%)",
		pct(worstLat), pct(worstTh))
	return t, nil
}
