package ml

import (
	"math"
	"math/rand"
	"testing"
)

func testSeqs(rng *rand.Rand, vocab, n int) [][]int {
	seqs := make([][]int, n)
	for i := range seqs {
		T := rng.Intn(14) // includes empty sequences
		seqs[i] = make([]int, T)
		for t := range seqs[i] {
			seqs[i][t] = rng.Intn(vocab)
		}
	}
	// Force duplicates: every third sequence repeats an earlier one.
	for i := 3; i < n; i += 3 {
		seqs[i] = seqs[rng.Intn(i)]
	}
	return seqs
}

// The batch path must reproduce the per-sequence path bit-for-bit — for
// batch=1, for large batches with duplicates, and for empty sequences.
func TestPredictBatchBitIdenticalToPredictRaw(t *testing.T) {
	cfg := LSTMConfig{Vocab: 37, Hidden: 28, Out: 2, Seed: 5}
	m := NewLSTM(cfg)
	rng := rand.New(rand.NewSource(21))
	seqs := testSeqs(rng, cfg.Vocab, 64)

	batch := m.PredictRawBatch(seqs)
	for i, seq := range seqs {
		want := m.PredictRaw(seq)
		for d := range want {
			if math.Float64bits(batch[i][d]) != math.Float64bits(want[d]) {
				t.Fatalf("seq %d (len %d) out[%d]: batch %v (%x), legacy %v (%x)",
					i, len(seq), d, batch[i][d], math.Float64bits(batch[i][d]),
					want[d], math.Float64bits(want[d]))
			}
		}
	}

	// batch=1 explicitly, and against the clamped per-sequence Predict.
	for _, seq := range seqs[:8] {
		b1 := m.PredictRawBatch([][]int{seq})[0]
		want := m.PredictRaw(seq)
		for d := range want {
			if math.Float64bits(b1[d]) != math.Float64bits(want[d]) {
				t.Fatalf("batch=1 mismatch: %v vs %v", b1, want)
			}
		}
		wc := m.Predict(seq)
		for d := range wc {
			c := b1[d]
			if c < 0 {
				c = 0
			}
			if math.Float64bits(c) != math.Float64bits(wc[d]) {
				t.Fatalf("clamped batch=1 mismatch: %v vs %v", b1, wc)
			}
		}
	}
}

// Duplicate inputs must get independent output slices.
func TestPredictBatchOutputsIndependent(t *testing.T) {
	m := NewLSTM(LSTMConfig{Vocab: 5, Hidden: 8, Out: 1, Seed: 1})
	seq := []int{1, 2, 3}
	outs := m.PredictRawBatch([][]int{seq, seq})
	if &outs[0][0] == &outs[1][0] {
		t.Fatal("duplicate sequences share an output slice")
	}
	outs[0][0] = 42
	if outs[1][0] == 42 {
		t.Fatal("mutating one duplicate's output changed the other")
	}
}
