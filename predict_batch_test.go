package clara

import (
	"math"
	"sync"
	"testing"

	"clara/internal/niccc"
)

// testToolOnce shares one quick-trained tool across the batch-identity
// and doors-agree tests (training dominates their runtime).
var (
	testToolOnce sync.Once
	testTool     *Tool
	testToolErr  error
)

func quickTestTool(t *testing.T) *Tool {
	t.Helper()
	testToolOnce.Do(func() {
		testTool, testToolErr = Train(TrainConfig{Quick: true, Seed: 42})
	})
	if testToolErr != nil {
		t.Fatal(testToolErr)
	}
	return testTool
}

// The batched inference path (PredictModules / PredictModule) must be
// bit-identical to the legacy per-block path (PredictBlock) across the
// whole element library: batching is a performance change, not a model
// change.
func TestPredictBatchBitIdenticalAcrossLibrary(t *testing.T) {
	tool := quickTestTool(t)
	var mods []*Module
	for _, e := range Elements() {
		mod, err := e.Module()
		if err != nil {
			t.Fatal(err)
		}
		mods = append(mods, mod)
	}
	batch, err := tool.Predictor.PredictModules(mods, niccc.AccelConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for mi, mod := range mods {
		single, err := tool.Predictor.PredictModule(mod, niccc.AccelConfig{})
		if err != nil {
			t.Fatal(err)
		}
		f := mod.Handler()
		for bi, b := range f.Blocks {
			compute, mem := tool.Predictor.PredictBlock(b)
			for _, bp := range [2]float64{batch[mi].Blocks[bi].Compute, single.Blocks[bi].Compute} {
				if math.Float64bits(bp) != math.Float64bits(compute) {
					t.Fatalf("%s block %d: batch compute %v != scalar %v",
						mod.Name, bi, bp, compute)
				}
			}
			if batch[mi].Blocks[bi].Mem != mem || single.Blocks[bi].Mem != mem {
				t.Fatalf("%s block %d: mem mismatch", mod.Name, bi)
			}
		}
	}
}
