package ml

import (
	"context"
	"math"
	"runtime"
	"testing"
)

// The minibatch LSTM trainer promises bit-determinism across GOMAXPROCS:
// per-slot gradient buffers reduced in slot order make the float
// summation tree a function of (seed, batch) only. These tests pin that
// contract — they compare raw bits, not tolerances.

// trainLSTMProcs trains under GOMAXPROCS procs and restores the previous
// setting.
func trainLSTMProcs(procs int, samples []SeqSample, cfg LSTMConfig) (*LSTM, float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	m, loss, _ := TrainLSTMContext(context.Background(), samples, cfg)
	return m, loss
}

func TestLSTMParallelDeterminism(t *testing.T) {
	samples := seqData(48, 10, 5)
	cfg := LSTMConfig{Vocab: 10, Hidden: 16, Epochs: 3, Seed: 11, Batch: 8}
	m1, l1 := trainLSTMProcs(1, samples, cfg)
	for _, procs := range []int{2, 8} {
		mN, lN := trainLSTMProcs(procs, samples, cfg)
		if len(m1.params) != len(mN.params) {
			t.Fatalf("param count differs: %d vs %d", len(m1.params), len(mN.params))
		}
		for i := range m1.params {
			if math.Float64bits(m1.params[i]) != math.Float64bits(mN.params[i]) {
				t.Fatalf("GOMAXPROCS=1 vs %d: params[%d] differ: %v vs %v",
					procs, i, m1.params[i], mN.params[i])
			}
		}
		if math.Float64bits(l1) != math.Float64bits(lN) {
			t.Fatalf("GOMAXPROCS=1 vs %d: loss differs: %v vs %v", procs, l1, lN)
		}
	}
}

func TestLSTMBatchOneMatchesDefault(t *testing.T) {
	// Batch 0 (legacy default) and Batch 1 are the same training schedule.
	samples := seqData(32, 8, 3)
	m0, _, _ := TrainLSTMContext(context.Background(), samples, LSTMConfig{Vocab: 8, Hidden: 12, Epochs: 2, Seed: 4})
	m1, _, _ := TrainLSTMContext(context.Background(), samples, LSTMConfig{Vocab: 8, Hidden: 12, Epochs: 2, Seed: 4, Batch: 1})
	for i := range m0.params {
		if math.Float64bits(m0.params[i]) != math.Float64bits(m1.params[i]) {
			t.Fatalf("Batch=0 vs Batch=1: params[%d] differ: %v vs %v", i, m0.params[i], m1.params[i])
		}
	}
}

func TestLSTMBatchTrainingStillLearns(t *testing.T) {
	// Minibatch mode must still converge on the counting task, not just
	// be deterministic, however many goroutines share a batch.
	samples := seqData(200, 12, 2)
	for _, procs := range []int{1, 2, 8} {
		m, _ := trainLSTMProcs(procs, samples, LSTMConfig{
			Vocab: 12, Hidden: 20, Epochs: 40, Seed: 1, Batch: 8,
		})
		var absErr, absTgt float64
		for _, s := range samples {
			p := m.Predict(s.Tokens)
			absErr += math.Abs(p[0] - s.Target[0])
			absTgt += math.Abs(s.Target[0])
		}
		if wmape := absErr / absTgt; wmape > 0.35 {
			t.Fatalf("GOMAXPROCS=%d: minibatch LSTM WMAPE = %.3f, want <= 0.35", procs, wmape)
		}
	}
}
