package analysis

import "clara/internal/ir"

// Facts is the per-module analysis context. A verified module is one
// function, the packet handler (the frontend inlines every subroutine, and
// ir.Verify rejects anything else), and the facts several passes need are
// derived from it once and kept where they belong — the loop nest and each
// loop's trip count on the CFG, the slot SSA and the interval and taint
// fixpoints over it here — so a pass asks for a fact (NaturalLoops,
// ComputeRanges, InferTripCount, ComputeTaint) and never rebuilds it. The
// memoization takes no locks: Facts is built and consumed by one goroutine
// and dropped with the job; it is not a cache across requests.
type Facts struct {
	M *ir.Module
	// F is the module's one function, its handler.
	F   *ir.Func
	CFG *CFG

	ssa    *SSA       // memoized by ssaOf
	ranges *RangeInfo // memoized by ComputeRanges
	taint  *TaintInfo // memoized by ComputeTaint
}

// NewFacts starts the analysis context of a module that passes ir.Verify.
func NewFacts(m *ir.Module) *Facts {
	f := m.Handler()
	return &Facts{M: m, F: f, CFG: BuildCFG(f)}
}

// ssaOf returns the handler's slot SSA, built on first use.
func (fx *Facts) ssaOf() *SSA {
	if fx.ssa == nil {
		fx.ssa = buildSSA(fx.CFG)
	}
	return fx.ssa
}
