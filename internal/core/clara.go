package core

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"clara/internal/analysis"
	"clara/internal/interp"
	"clara/internal/ir"
	"clara/internal/isa"
	"clara/internal/niccc"
	"clara/internal/nicsim"
	"clara/internal/traffic"
)

// Clara bundles the trained analysis components into the tool the paper
// describes: given an unported NF and a workload specification, emit
// offloading insights (Figure 2c).
type Clara struct {
	Predictor *Predictor
	AlgoID    *AlgoIdentifier
	Scaleout  *ScaleoutModel
	Params    nicsim.Params
	Coalesce  CoalesceConfig
}

// Insights is the full report for one NF and workload.
type Insights struct {
	NF       string
	Workload string

	// Cross-platform prediction (§3).
	Prediction *ModulePrediction

	// Accelerator opportunities (§4.1).
	Algorithm int // AlgoCRC / AlgoLPM / AlgoNone

	// Multicore scale-out (§4.2).
	SuggestedCores int

	// NF state placement (§4.3).
	Placement nicsim.Placement

	// Memory access coalescing (§4.4).
	Packs [][]string

	// Offloadability lint findings (internal/analysis): SmartNIC-hostile
	// constructs detected statically in the unported NF.
	Diagnostics []analysis.Diagnostic

	// StateProfile is the interprocedural static profile: every loop and
	// stateful structure classified header-only vs payload-dependent
	// (taint) and weighted by estimated access frequency (trip counts ×
	// branch probabilities). The placement ILP can consume its weights in
	// place of a host profile (SuggestPlacementStatic), and the offload
	// controller refines its fast/slow split from its header-only share
	// (offload.DeriveCapacitiesProfile).
	StateProfile *analysis.StateProfile
}

// LintConfig derives the linter budgets from the hardware model: the
// largest tier bounds what can be placed at all, the on-chip tiers bound
// what stays in SRAM.
func (c *Clara) LintConfig() analysis.Config {
	cfg := analysis.DefaultConfig()
	if emem := c.Params.Regions[isa.EMEM].Capacity; emem > 0 {
		cfg.TotalBudget = emem
	}
	fast := c.Params.Regions[isa.CLS].Capacity +
		c.Params.Regions[isa.CTM].Capacity +
		c.Params.Regions[isa.IMEM].Capacity
	if fast > 0 {
		cfg.FastBudget = fast
	}
	return cfg
}

// Analyze runs every analysis on an unported NF.
func (c *Clara) Analyze(mod *ir.Module, ps ProfileSetup, wl traffic.Spec) (*Insights, error) {
	return c.AnalyzeContext(context.Background(), mod, ps, wl)
}

// AnalyzeContext is Analyze under a context: prediction, profiling,
// placement, and scale-out all stop promptly when ctx is canceled (a
// serving layer's per-request timeout or client disconnect).
func (c *Clara) AnalyzeContext(ctx context.Context, mod *ir.Module, ps ProfileSetup, wl traffic.Spec) (*Insights, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	mp, err := c.Predictor.PredictModule(mod, niccc.AccelConfig{})
	if err != nil {
		return nil, err
	}
	return c.AnalyzeWorkloadContext(ctx, mod, ps, wl, c.Facts(mod, mp), nil)
}

// ModuleFacts is the workload-independent half of an analysis: what
// Insights carry that depends on the module and the tool alone — the §3
// prediction, the offloadability diagnostics and static state profile
// (one analysis.Analyze pass), and the §4.1 algorithm. It is read-only
// once built, so one value may back every workload a module is analyzed
// under, and the Insights built from it share its slices.
type ModuleFacts struct {
	Prediction   *ModulePrediction
	Diagnostics  []analysis.Diagnostic
	StateProfile *analysis.StateProfile
	Algorithm    int // AlgoCRC / AlgoLPM / AlgoNone
	// Stages is what computing these facts took (StageAnalyze,
	// StageAlgoID): the job that computed them is charged with it, not
	// the jobs that share them.
	Stages Stages
}

// Facts computes the static half of mod's analysis against an
// already-computed §3 prediction. The prediction is only read, so a cached
// *ModulePrediction may back concurrent calls.
func (c *Clara) Facts(mod *ir.Module, mp *ModulePrediction) *ModuleFacts {
	f := &ModuleFacts{Prediction: mp}
	clk := StartClock(&f.Stages)
	f.Diagnostics, f.StateProfile = analysis.Analyze(mod, c.LintConfig())
	clk.Lap(StageAnalyze)
	if c.AlgoID != nil {
		f.Algorithm = c.AlgoID.Classify(mod)
		clk.Lap(StageAlgoID)
	}
	return f
}

// AnalyzeWorkloadContext runs the workload-dependent half of an analysis
// on top of mod's Facts: the state-oversize refusal, the host profile,
// placement, coalescing packs and scale-out. A caller analyzing one module
// under several workloads computes Facts once and calls this per workload,
// as a fleet batch does. The context is observed inside the profiling
// packet loop (the longest stage) and between stages, so canceling stops
// the analysis within at most one stage boundary or 64 profiled packets.
// A non-nil st is charged with the stages this half runs, StageCompile
// through StageScaleout.
func (c *Clara) AnalyzeWorkloadContext(ctx context.Context, mod *ir.Module, ps ProfileSetup, wl traffic.Spec, f *ModuleFacts, st *Stages) (*Insights, error) {
	if f == nil || f.Prediction == nil {
		return nil, fmt.Errorf("core: nil prediction for %s", mod.Name)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// A structure beyond the largest tier has no feasible placement, so the
	// job is lost either way; fail it before profiling allocates the
	// structure on the host (the size comes from submitted source).
	for _, d := range f.Diagnostics {
		if d.Rule == analysis.RuleStateOversize && d.Severity == analysis.SevError {
			return nil, fmt.Errorf("core: %s cannot be placed: %s", mod.Name, d)
		}
	}
	ins := &Insights{
		NF: mod.Name, Workload: wl.Name, Prediction: f.Prediction, Algorithm: f.Algorithm,
		Diagnostics: f.Diagnostics, StateProfile: f.StateProfile,
	}

	clk := StartClock(st)
	// Compiling ahead of profiling only splits the clock: a compile error
	// is kept with the program, and the profiler's interp.New reports it.
	_ = interp.Precompile(mod)
	clk.Lap(StageCompile)
	prof, err := ProfileOnHostContext(ctx, mod, ps, wl, 800)
	if err != nil {
		return nil, err
	}
	clk.Lap(StageProfile)
	if len(mod.Globals) > 0 {
		pl, err := SuggestPlacementContext(ctx, mod, prof, c.Params)
		if err != nil {
			return nil, err
		}
		ins.Placement = pl
		clk.Lap(StagePlacement)
		ins.Packs = SuggestPacks(mod, prof, c.Coalesce)
		clk.Lap(StagePacks)
	}

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if c.Scaleout != nil {
		stateBytes := 0
		for _, g := range mod.Globals {
			stateBytes += g.SizeBytes()
		}
		ins.SuggestedCores = c.Scaleout.Suggest(ScaleoutFeatures(f.Prediction, prof, wl, stateBytes))
		clk.Lap(StageScaleout)
	}
	return ins, nil
}

// Report renders the insights as the CLI's human-readable output.
func (ins *Insights) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Clara offloading insights — NF %q, workload %q\n", ins.NF, ins.Workload)
	fmt.Fprintf(&b, "\nPredicted performance parameters (per handler invocation):\n")
	fmt.Fprintf(&b, "  compute instructions (core logic): %.1f\n", ins.Prediction.TotalCompute)
	fmt.Fprintf(&b, "  framework API instructions:        %d (reverse-ported, exact)\n", ins.Prediction.TotalAPI)
	fmt.Fprintf(&b, "  stateful memory accesses (static): %d\n", ins.Prediction.TotalMem)

	fmt.Fprintf(&b, "\nAccelerator opportunities: ")
	if ins.Algorithm == AlgoNone {
		b.WriteString("none detected\n")
	} else {
		fmt.Fprintf(&b, "%s — rewrite the matching code to the %s engine\n",
			AlgoName(ins.Algorithm), AlgoName(ins.Algorithm))
	}

	if ins.SuggestedCores > 0 {
		fmt.Fprintf(&b, "\nMulticore scale-out: use ~%d cores for this workload\n", ins.SuggestedCores)
	}

	if len(ins.Placement) > 0 {
		fmt.Fprintf(&b, "\nState placement:\n")
		byRegion := map[isa.Region][]string{}
		for g, r := range ins.Placement {
			byRegion[r] = append(byRegion[r], g)
		}
		for r := isa.CLS; r <= isa.EMEM; r++ {
			if gs := byRegion[r]; len(gs) > 0 {
				fmt.Fprintf(&b, "  %-4s: %s\n", r, strings.Join(sorted(gs), ", "))
			}
		}
	}
	if len(ins.Packs) > 0 {
		fmt.Fprintf(&b, "\nCoalescing packs (allocate adjacently, fetch together):\n")
		for i, p := range ins.Packs {
			fmt.Fprintf(&b, "  pack %d: %s\n", i, strings.Join(p, ", "))
		}
	}
	if sp := ins.StateProfile; sp != nil && (len(sp.Loops) > 0 || len(sp.Structs) > 0) {
		fmt.Fprintf(&b, "\nStatic state profile (header-only share %.0f%%, %d payload-dependent loop(s)):\n",
			100*sp.HeaderOnlyShare(), sp.PayloadLoops())
		for _, line := range strings.Split(strings.TrimRight(sp.Render(), "\n"), "\n") {
			fmt.Fprintf(&b, "  %s\n", line)
		}
	}
	if len(ins.Diagnostics) > 0 {
		s := analysis.Summarize(ins.Diagnostics)
		fmt.Fprintf(&b, "\nOffloadability lint (%d error(s), %d warning(s), %d note(s)):\n",
			s.Errors, s.Warnings, s.Infos)
		for _, d := range ins.Diagnostics {
			fmt.Fprintf(&b, "  %s\n", d)
		}
	}
	return b.String()
}

func sorted(xs []string) []string {
	out := append([]string(nil), xs...)
	sort.Strings(out)
	return out
}
