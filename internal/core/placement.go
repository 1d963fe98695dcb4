package core

import (
	"context"
	"fmt"
	"math"

	"clara/internal/analysis"
	"clara/internal/ilp"
	"clara/internal/ir"
	"clara/internal/isa"
	"clara/internal/nicsim"
)

// placeRegions are the memory levels state may be placed in, in hierarchy
// order (LMEM is core-private and excluded, §4.3).
var placeRegions = []isa.Region{isa.CLS, isa.CTM, isa.IMEM, isa.EMEM}

// SuggestPlacement formulates the §4.3 ILP — minimize Σ L_j · f_i · x_ij
// subject to per-level capacity — and solves it exactly.
//
// The latencies and capacities come from the target's public databook
// numbers (the Params); the access frequencies f_i come from the
// workload-specific host profile.
func SuggestPlacement(mod *ir.Module, prof *HostProfile, params nicsim.Params) (nicsim.Placement, error) {
	return SuggestPlacementContext(context.Background(), mod, prof, params)
}

// SuggestPlacementContext is SuggestPlacement with cancellation: the
// context is checked before the branch-and-bound solve (the placement
// stage's only potentially long step — NF state counts are small, so one
// pre-solve check keeps a canceled request from entering the search at
// all).
func SuggestPlacementContext(ctx context.Context, mod *ir.Module, prof *HostProfile, params nicsim.Params) (nicsim.Placement, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: placement for %s: %w", mod.Name, err)
	}
	return placeWithFreq(mod, prof.GlobalFreq, params)
}

// SuggestPlacementStatic solves the same §4.3 ILP with the frequencies
// f_i estimated statically (analysis.ComputeStateProfile: loop trip
// counts × branch probabilities) instead of measured by host profiling.
// It needs no workload, no interpreter run, and no profile — the
// placement a one-shot `clara -lint`-grade invocation can produce — and
// on the element library it matches the dynamically profiled placement
// (pinned by TestStaticPlacement*).
func SuggestPlacementStatic(mod *ir.Module, params nicsim.Params) (nicsim.Placement, error) {
	sp := analysis.ComputeStateProfile(mod)
	return placeWithFreq(mod, sp.GlobalFreq(), params)
}

// placeWithFreq formulates and solves the placement ILP for the given
// per-structure access frequencies.
func placeWithFreq(mod *ir.Module, freq map[string]float64, params nicsim.Params) (nicsim.Placement, error) {
	var items []*ir.Global
	for _, g := range mod.Globals {
		items = append(items, g)
	}
	if len(items) == 0 {
		return nicsim.Placement{}, nil
	}
	prob := &ilp.Problem{Cap: make([]int, len(placeRegions))}
	for j, r := range placeRegions {
		prob.Cap[j] = params.Regions[r].Capacity
	}
	for _, g := range items {
		row := make([]float64, len(placeRegions))
		for j, r := range placeRegions {
			if g.SizeBytes() > params.Regions[r].Capacity {
				row[j] = math.Inf(1)
				continue
			}
			row[j] = float64(params.Regions[r].Latency) * freq[g.Name]
		}
		prob.Cost = append(prob.Cost, row)
		prob.Size = append(prob.Size, g.SizeBytes())
	}
	assign, _, err := ilp.Solve(prob)
	if err != nil {
		return nil, fmt.Errorf("core: placement ILP for %s: %w", mod.Name, err)
	}
	out := nicsim.Placement{}
	for i, g := range items {
		out[g.Name] = placeRegions[assign[i]]
	}
	return out, nil
}

// NaivePlacement is the §5.5 baseline: every structure in EMEM.
func NaivePlacement(mod *ir.Module) nicsim.Placement {
	out := nicsim.Placement{}
	for _, g := range mod.Globals {
		out[g.Name] = isa.EMEM
	}
	return out
}

// PlacementCandidates enumerates the placements the §5.8 "expert" sweeps.
// Scalars are grouped as a single unit to bound the search (documented
// substitution: the paper's exhaustive sweep is per data structure on a
// hardware testbed; grouping the byte-sized scalars keeps the simulated
// sweep exhaustive over the structures that matter — the maps and arrays).
func PlacementCandidates(mod *ir.Module, params nicsim.Params) []nicsim.Placement {
	var big []*ir.Global // maps and arrays, swept individually
	var scalars []*ir.Global
	for _, g := range mod.Globals {
		if g.Kind == ir.GScalar {
			scalars = append(scalars, g)
		} else {
			big = append(big, g)
		}
	}
	units := len(big)
	if len(scalars) > 0 {
		units++
	}
	total := 1
	for i := 0; i < units; i++ {
		total *= len(placeRegions)
	}
	var out []nicsim.Placement
	for code := 0; code < total; code++ {
		c := code
		pl := nicsim.Placement{}
		used := map[isa.Region]int{}
		ok := true
		for _, g := range big {
			r := placeRegions[c%len(placeRegions)]
			c /= len(placeRegions)
			pl[g.Name] = r
			used[r] += g.SizeBytes()
		}
		if len(scalars) > 0 {
			r := placeRegions[c%len(placeRegions)]
			for _, g := range scalars {
				pl[g.Name] = r
				used[r] += g.SizeBytes()
			}
		}
		//claravet:allow order-insensitive: ok is the AND of every region's fit
		for r, b := range used {
			if b > params.Regions[r].Capacity {
				ok = false
			}
		}
		if ok {
			out = append(out, pl)
		}
	}
	return out
}
