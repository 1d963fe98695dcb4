package ml

import (
	"encoding/binary"
	"math"
	"sort"
	"sync"

	"clara/internal/ml/vek"
)

// Batched inference. The per-block path walks one sequence at a time, so
// every timestep costs one 28×112 GemvTAdd. PredictRawBatch instead packs
// the hidden states of every in-flight sequence into a matrix and runs
// the recurrent step as a single Gemm per timestep *wavefront*: sequences
// are sorted by length descending, so at step t the first `act` rows are
// exactly the sequences still alive and the Gemm shrinks as short
// sequences retire. Identical token sequences are deduplicated first —
// the forward pass is a pure function of the tokens, so duplicates (44%
// of the element library's blocks share a sequence with an earlier block)
// are computed once and fanned back out.
//
// Determinism: results are bit-identical to the per-sequence path. At
// t=0 the hidden state is all-zero and the recurrent Gemm is skipped
// outright, mirroring GemvTAdd's zero-row skip. At t>0 Gemm accumulates
// the same products in the same k-ascending order GemvTAdd does; the
// only divergence would be a hidden unit that is *exactly* 0.0 after a
// step (GemvTAdd skips it, Gemm adds a signed zero), which cannot change
// any finite sum except an exact -0 accumulator. The library-wide
// bit-identity test pins this in practice.

// lstmBatchScratch carries the reusable buffers one PredictRawBatch call
// needs; pooled like lstmScratch so concurrent callers don't contend.
type lstmBatchScratch struct {
	ar   vek.Arena
	key  []byte
	idx  map[string]int
	uniq []int // unique sequence slots, as indices into the caller's seqs
}

var lstmBatchScratchPool = sync.Pool{New: func() any {
	return &lstmBatchScratch{idx: make(map[string]int)}
}}

func takeBatchScratch() *lstmBatchScratch {
	return lstmBatchScratchPool.Get().(*lstmBatchScratch)
}

func (sc *lstmBatchScratch) release() {
	clear(sc.idx)
	sc.uniq = sc.uniq[:0]
	sc.ar.Reset()
	lstmBatchScratchPool.Put(sc)
}

// batchPlan is the shared pre-pass for batched inference: deduplicated
// unique sequences sorted by length descending so each timestep's live
// set is a prefix (the wavefront).
type batchPlan struct {
	assign []int // input i -> unique slot, -1 for empty
	order  []int // sorted row r -> unique slot
	rank   []int // unique slot -> sorted row
	uniq   []int // unique slot -> first input index
	maxT   int
}

// row returns the input index computing sorted row r.
func (pl *batchPlan) row(seqs [][]int, r int) []int { return seqs[pl.uniq[pl.order[r]]] }

func planBatch(sc *lstmBatchScratch, seqs [][]int) batchPlan {
	// Deduplicate: assign[i] is the unique slot computing seqs[i], or -1
	// for an empty sequence.
	assign := make([]int, len(seqs))
	for i, seq := range seqs {
		if len(seq) == 0 {
			assign[i] = -1
			continue
		}
		sc.key = sc.key[:0]
		for _, tok := range seq {
			sc.key = binary.LittleEndian.AppendUint32(sc.key, uint32(tok))
		}
		if u, ok := sc.idx[string(sc.key)]; ok {
			assign[i] = u
			continue
		}
		u := len(sc.uniq)
		sc.idx[string(sc.key)] = u
		sc.uniq = append(sc.uniq, i)
		assign[i] = u
	}
	Bu := len(sc.uniq)
	pl := batchPlan{assign: assign, uniq: sc.uniq}
	if Bu == 0 {
		return pl
	}
	// Sort unique slots by length descending (stable, so order is a
	// function of the input alone).
	pl.order = make([]int, Bu)
	for i := range pl.order {
		pl.order[i] = i
	}
	sort.SliceStable(pl.order, func(a, b int) bool {
		return len(seqs[sc.uniq[pl.order[a]]]) > len(seqs[sc.uniq[pl.order[b]]])
	})
	pl.rank = make([]int, Bu)
	for r, u := range pl.order {
		pl.rank[u] = r
	}
	pl.maxT = len(pl.row(seqs, 0))
	return pl
}

// PredictRawBatch returns PredictRaw(seqs[i]) for every i, computed as
// one wavefront of Gemm calls over the deduplicated batch. Outputs are
// freshly allocated per entry (duplicates get copies, so callers may
// mutate results independently).
func (m *LSTM) PredictRawBatch(seqs [][]int) [][]float64 {
	H, D := m.cfg.Hidden, m.cfg.Out
	out := make([][]float64, len(seqs))
	sc := takeBatchScratch()
	defer sc.release()

	pl := planBatch(sc, seqs)
	Bu := len(sc.uniq)
	if Bu == 0 {
		for i := range out {
			out[i] = make([]float64, D)
		}
		return out
	}

	p := m.params
	bias := p[m.oB : m.oB+4*H]
	wh := p[m.oWh:m.oB]
	hs := sc.ar.Take(Bu * H)
	cs := sc.ar.Take(Bu * H)
	zs := sc.ar.Take(Bu * 4 * H)
	act := Bu
	for t := 0; t < pl.maxT; t++ {
		for act > 0 && len(pl.row(seqs, act-1)) <= t {
			act--
		}
		for b := 0; b < act; b++ {
			tok := pl.row(seqs, b)[t]
			z := zs[b*4*H : (b+1)*4*H]
			copy(z, p[m.oWx+tok*4*H:m.oWx+(tok+1)*4*H])
			vek.Add(bias, z)
		}
		if t > 0 {
			// h0 = 0, so the t=0 recurrent term vanishes — skipping it
			// matches GemvTAdd's zero-skip bit-for-bit.
			vek.Gemm(zs, hs, wh, act, 4*H, H)
		}
		for b := 0; b < act; b++ {
			z := zs[b*4*H : (b+1)*4*H]
			h := hs[b*H : (b+1)*H]
			c := cs[b*H : (b+1)*H]
			for j := 0; j < H; j++ {
				ij := sigmoid(z[j])
				fj := sigmoid(z[H+j])
				gj := math.Tanh(z[2*H+j])
				oj := sigmoid(z[3*H+j])
				cj := fj*c[j] + ij*gj
				c[j] = cj
				h[j] = oj * math.Tanh(cj)
			}
		}
	}

	// Read-out for every unique sequence in one Gemm: rows of hs hold
	// each sequence's final hidden state (rows stop being touched once
	// their sequence retires). Y = bo + H·Wo accumulates over j in the
	// same ascending order as the scalar read-out loop.
	ys := sc.ar.Take(Bu * D)
	for b := 0; b < Bu; b++ {
		copy(ys[b*D:(b+1)*D], p[m.oBo:m.oBo+D])
	}
	vek.Gemm(ys, hs, p[m.oWo:m.oBo], Bu, D, H)

	for i := range seqs {
		o := make([]float64, D)
		if u := pl.assign[i]; u >= 0 {
			row := ys[pl.rank[u]*D : (pl.rank[u]+1)*D]
			for d := 0; d < D; d++ {
				o[d] = row[d] * m.cfg.TargetScale
			}
		}
		out[i] = o
	}
	return out
}
