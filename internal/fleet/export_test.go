package fleet

import (
	"clara/internal/core"
	"clara/internal/memo"
)

// setCacheCap replaces f's prediction store with an empty one of n
// entries. The cap is a constant, not configuration, and the eviction
// tests need one smaller than a batch.
func (f *Fleet) setCacheCap(n int) {
	f.cache = memo.New[predKey, *core.ModulePrediction](n)
}

// setResultCap does the same for the result store.
func (f *Fleet) setResultCap(n int) {
	f.results = memo.New[resultKey, *analysed](n)
}
