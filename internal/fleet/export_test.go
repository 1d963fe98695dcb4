package fleet

import (
	"sync/atomic"
	"testing"

	"clara/internal/core"
	"clara/internal/ir"
	"clara/internal/memo"
)

// setCacheCap replaces f's module store with an empty one of n
// entries. The cap is a constant, not configuration, and the eviction
// tests need one smaller than a batch.
func (f *Fleet) setCacheCap(n int) {
	f.modules = memo.New[predKey, *core.ModuleFacts](n)
}

// setResultCap does the same for the result store.
func (f *Fleet) setResultCap(n int) {
	f.results = memo.New[resultKey, *analysed](n)
}

// countFacts counts, for the rest of the test, every computation of a
// module's static half (one analysis.Analyze pass each). Tests using it
// must not run in parallel: the hook is the package's.
func countFacts(t *testing.T) *atomic.Int64 {
	facts := new(atomic.Int64)
	real := moduleFacts
	moduleFacts = func(c *core.Clara, mod *ir.Module, mp *core.ModulePrediction) *core.ModuleFacts {
		facts.Add(1)
		return real(c, mod, mp)
	}
	t.Cleanup(func() { moduleFacts = real })
	return facts
}
