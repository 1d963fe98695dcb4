package ml

import (
	"context"
	"testing"
)

// Benchmarks for the model hot loops the training fast path targets:
// run with `go test -bench . -benchmem ./internal/ml/` and compare
// allocs/op before and after scratch-buffer reuse.

func benchSeqData(b *testing.B) []SeqSample {
	b.Helper()
	return seqData(64, 12, 99)
}

func BenchmarkLSTMPredict(b *testing.B) {
	samples := benchSeqData(b)
	m, _, _ := TrainLSTMContext(context.Background(), samples, LSTMConfig{Vocab: 12, Hidden: 24, Epochs: 1, Seed: 1})
	toks := samples[0].Tokens
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Predict(toks)
	}
}

func BenchmarkLSTMTrainEpoch(b *testing.B) {
	samples := benchSeqData(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		TrainLSTMContext(context.Background(), samples, LSTMConfig{Vocab: 12, Hidden: 24, Epochs: 1, Seed: 2})
	}
}

func BenchmarkLSTMTrainEpochParallel(b *testing.B) {
	samples := benchSeqData(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		TrainLSTMContext(context.Background(), samples, LSTMConfig{Vocab: 12, Hidden: 24, Epochs: 1, Seed: 2, Batch: 8})
	}
}

func BenchmarkMLPTrain(b *testing.B) {
	X, y := synthReg(128, 42)
	targets := make([][]float64, len(y))
	for i, v := range y {
		targets[i] = []float64{v}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		TrainMLP(X, targets, MLPConfig{Layers: []int{3, 16, 1}, Epochs: 4, Seed: 3})
	}
}

func BenchmarkMLPPredict(b *testing.B) {
	X, y := synthReg(128, 42)
	targets := make([][]float64, len(y))
	for i, v := range y {
		targets[i] = []float64{v}
	}
	m, _ := TrainMLP(X, targets, MLPConfig{Layers: []int{3, 16, 1}, Epochs: 2, Seed: 3})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Predict(X[i%len(X)])
	}
}

func BenchmarkDot(b *testing.B) {
	x := make([]float64, 512)
	y := make([]float64, 512)
	for i := range x {
		x[i] = float64(i) * 0.25
		y[i] = float64(512-i) * 0.5
	}
	b.ResetTimer()
	var s float64
	for i := 0; i < b.N; i++ {
		s += Dot(x, y)
	}
	sinkFloat = s
}

func BenchmarkAxpy(b *testing.B) {
	x := make([]float64, 512)
	y := make([]float64, 512)
	for i := range x {
		x[i] = float64(i) * 0.25
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Axpy(0.001, x, y)
	}
}

var sinkFloat float64
