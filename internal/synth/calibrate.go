package synth

import (
	"context"

	"clara/internal/ir"
	"clara/internal/par"
)

// Calibrate closes the loop between the target corpus profile and what the
// generator actually emits: it generates a probe corpus, measures its
// profile, and multiplicatively adjusts the guidance rates so the emitted
// distribution lands on the target. Three iterations suffice in practice.
//
// This is the working form of the paper's "analyzes existing Click
// elements to obtain representative AST distributions, and then feeds such
// properties to the program generator": the generator's knobs are rates,
// not final distributions, so the mapping must be inverted empirically.
func Calibrate(target Profile, probeSize int, seed int64) (Profile, error) {
	guide := clone(target)
	for iter := 0; iter < 3; iter++ {
		// Probe programs are independent (per-index seeds), so each
		// iteration's corpus generates in parallel; mods keeps index
		// order, making the measured profile worker-count-invariant.
		mods := make([]*ir.Module, probeSize)
		err := par.ForErr(noCtx, probeSize, func(i int) error {
			m, _, err := GenerateModule(Config{
				Profile: guide,
				Seed:    seed + int64(iter)*100000 + int64(i),
			})
			if err != nil {
				return err
			}
			mods[i] = m
			return nil
		})
		if err != nil {
			return Profile{}, err
		}
		got := ProfileFromModules(mods)
		guide.BranchPerInstr = adjust(guide.BranchPerInstr, target.BranchPerInstr, got.BranchPerInstr)
		guide.StatePerInstr = adjust(guide.StatePerInstr, target.StatePerInstr, got.StatePerInstr)
		guide.APIPerInstr = adjust(guide.APIPerInstr, target.APIPerInstr, got.APIPerInstr)
		guide.LoopFrac = adjust(guide.LoopFrac, target.LoopFrac, got.LoopFrac)
		guide.AvgHandlerInstrs = adjust(guide.AvgHandlerInstrs, target.AvgHandlerInstrs, got.AvgHandlerInstrs)
		ow := map[string]float64{}
		var total float64
		for _, op := range opNames {
			w := adjust(guide.OpWeights[op], target.OpWeights[op], got.OpWeights[op])
			ow[op] = w
			total += w
		}
		if total > 0 {
			for k := range ow {
				ow[k] /= total
			}
		}
		guide.OpWeights = ow
	}
	return guide, nil
}

// noCtx: calibration has no cancellation path of its own (it runs inside
// coarser per-step context checks in core).
var noCtx = context.Background()

func clone(p Profile) Profile {
	ow := map[string]float64{}
	for k, v := range p.OpWeights {
		ow[k] = v
	}
	p.OpWeights = ow
	return p
}

// adjust multiplies the knob by target/measured, bounded to [1/4, 4] per
// step to keep the fixed-point iteration stable.
func adjust(knob, target, measured float64) float64 {
	if measured <= 0 || target <= 0 {
		return knob
	}
	r := target / measured
	if r > 4 {
		r = 4
	}
	if r < 0.25 {
		r = 0.25
	}
	return knob * r
}
