package ml

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"clara/internal/ml/vek"
)

// SeqSample is one training pair for sequence models: an encoded
// instruction sequence (vocabulary indices) and its regression targets
// (e.g. [compute instructions, memory instructions]).
type SeqSample struct {
	Tokens []int
	Target []float64
}

// LSTMConfig configures the LSTM+FC model of §3.2 (Figure 6).
type LSTMConfig struct {
	Vocab       int
	Hidden      int
	Out         int
	Epochs      int
	TargetScale float64 // targets are divided by this during training
	Seed        int64
	// Batch is the number of samples per optimizer step. 0 or 1 keeps the
	// original per-sample update; >1 accumulates a minibatch gradient
	// (summed, not averaged — Adam normalizes scale away).
	Batch int
}

// The LSTM's Adam learning rate and gradient-norm clip.
const (
	lstmLR   = 0.004
	lstmClip = 5
)

func (c LSTMConfig) norm() LSTMConfig {
	if c.Hidden == 0 {
		c.Hidden = 32
	}
	if c.Out == 0 {
		c.Out = 1
	}
	if c.Epochs == 0 {
		c.Epochs = 30
	}
	if c.TargetScale == 0 {
		c.TargetScale = 10
	}
	if c.Batch == 0 {
		c.Batch = 1
	}
	return c
}

// LSTM is a single-layer LSTM over one-hot tokens with a linear read-out
// from the final hidden state. One-hot input makes the input projection a
// per-token row lookup, which is exactly what the paper's compacted
// vocabulary enables.
type LSTM struct {
	cfg    LSTMConfig
	params []float64
	// offsets into params
	oWx, oWh, oB, oWo, oBo int
}

// NewLSTM allocates a randomly initialized model.
func NewLSTM(cfg LSTMConfig) *LSTM {
	cfg = cfg.norm()
	V, H, D := cfg.Vocab, cfg.Hidden, cfg.Out
	m := &LSTM{cfg: cfg}
	m.oWx = 0
	m.oWh = m.oWx + V*4*H
	m.oB = m.oWh + H*4*H
	m.oWo = m.oB + 4*H
	m.oBo = m.oWo + H*D
	m.params = make([]float64, m.oBo+D)
	rng := rand.New(rand.NewSource(cfg.Seed + 101))
	randInit(rng, m.params[m.oWx:m.oWh], 0.25)
	randInit(rng, m.params[m.oWh:m.oB], 1/math.Sqrt(float64(H)))
	randInit(rng, m.params[m.oWo:m.oBo], 1/math.Sqrt(float64(H)))
	// Forget-gate bias starts positive (standard trick for gradient flow).
	b := m.params[m.oB : m.oB+4*H]
	for i := H; i < 2*H; i++ {
		b[i] = 1
	}
	return m
}

// step state kept for BPTT.
type lstmStep struct {
	tok        int
	i, f, g, o []float64
	c, tc, h   []float64
}

// lstmScratch holds every temporary one forward+backward pass needs.
// Not goroutine-safe; Predict borrows one from a pool, trainers keep one
// per worker. A forward Reset()s the arena, so step state from the
// previous sample dies there; backward Takes more from the same arena
// without resetting (the steps it walks live in it).
type lstmScratch struct {
	ar    vek.Arena
	steps []lstmStep
}

var lstmScratchPool = sync.Pool{New: func() any { return new(lstmScratch) }}

func (m *LSTM) forwardScratch(sc *lstmScratch, tokens []int) ([]lstmStep, []float64) {
	H, D := m.cfg.Hidden, m.cfg.Out
	p := m.params
	sc.ar.Reset()
	if cap(sc.steps) < len(tokens) {
		sc.steps = make([]lstmStep, len(tokens))
	}
	steps := sc.steps[:len(tokens)]
	hPrev := sc.ar.Take(H)
	cPrev := sc.ar.Take(H)
	z := sc.ar.Take(4 * H)
	for t, tok := range tokens {
		wx := p[m.oWx+tok*4*H : m.oWx+(tok+1)*4*H]
		copy(z, wx)
		vek.Add(p[m.oB:m.oB+4*H], z)
		vek.GemvTAdd(z, p[m.oWh:m.oB], hPrev, H, 4*H)
		st := lstmStep{
			tok: tok,
			i:   sc.ar.Take(H), f: sc.ar.Take(H),
			g: sc.ar.Take(H), o: sc.ar.Take(H),
			c: sc.ar.Take(H), tc: sc.ar.Take(H), h: sc.ar.Take(H),
		}
		for j := 0; j < H; j++ {
			st.i[j] = sigmoid(z[j])
			st.f[j] = sigmoid(z[H+j])
			st.g[j] = math.Tanh(z[2*H+j])
			st.o[j] = sigmoid(z[3*H+j])
			st.c[j] = st.f[j]*cPrev[j] + st.i[j]*st.g[j]
			st.tc[j] = math.Tanh(st.c[j])
			st.h[j] = st.o[j] * st.tc[j]
		}
		steps[t] = st
		hPrev, cPrev = st.h, st.c
	}
	y := sc.ar.Take(D)
	for d := 0; d < D; d++ {
		y[d] = p[m.oBo+d]
		for j := 0; j < H; j++ {
			y[d] += p[m.oWo+j*D+d] * hPrev[j]
		}
	}
	return steps, y
}

// forward keeps the historical signature (gradient-check tests call it
// directly); fresh scratch means the returned slices stay valid.
func (m *LSTM) forward(tokens []int) ([]lstmStep, []float64) {
	return m.forwardScratch(new(lstmScratch), tokens)
}

// Predict returns the model outputs rescaled to target units, clamped to
// be nonnegative (instruction counts).
func (m *LSTM) Predict(tokens []int) []float64 {
	out := m.PredictRaw(tokens)
	for i := range out {
		if out[i] < 0 {
			out[i] = 0
		}
	}
	return out
}

// PredictRaw returns the model outputs rescaled to target units without
// clamping (for signed targets such as residuals). Safe for concurrent
// use: scratch comes from a pool, one per in-flight call.
func (m *LSTM) PredictRaw(tokens []int) []float64 {
	if len(tokens) == 0 {
		return make([]float64, m.cfg.Out)
	}
	sc := lstmScratchPool.Get().(*lstmScratch)
	_, y := m.forwardScratch(sc, tokens)
	out := make([]float64, len(y))
	for i := range y {
		out[i] = y[i] * m.cfg.TargetScale
	}
	lstmScratchPool.Put(sc)
	return out
}

// backwardScratch accumulates gradients for one sample; returns the loss.
// It Takes from the same arena that holds steps, so it must run before
// the next forwardScratch on that scratch.
func (m *LSTM) backwardScratch(sc *lstmScratch, steps []lstmStep, y, target []float64, grads []float64) float64 {
	H, D := m.cfg.Hidden, m.cfg.Out
	p := m.params
	T := len(steps)
	dh := sc.ar.Take(H)
	dc := sc.ar.Take(H)

	loss := 0.0
	dy := sc.ar.Take(D)
	hT := steps[T-1].h
	for d := 0; d < D; d++ {
		diff := y[d] - target[d]/m.cfg.TargetScale
		loss += 0.5 * diff * diff
		dy[d] = diff
		grads[m.oBo+d] += diff
		for j := 0; j < H; j++ {
			grads[m.oWo+j*D+d] += diff * hT[j]
			dh[j] += p[m.oWo+j*D+d] * diff
		}
	}

	dz := sc.ar.Take(4 * H)
	for t := T - 1; t >= 0; t-- {
		st := &steps[t]
		var cPrev, hPrev []float64
		if t > 0 {
			cPrev = steps[t-1].c
			hPrev = steps[t-1].h
		}
		for j := 0; j < H; j++ {
			doj := dh[j] * st.tc[j]
			dcj := dc[j] + dh[j]*st.o[j]*(1-st.tc[j]*st.tc[j])
			dij := dcj * st.g[j]
			dgj := dcj * st.i[j]
			dfj := 0.0
			if cPrev != nil {
				dfj = dcj * cPrev[j]
			}
			dz[j] = dij * st.i[j] * (1 - st.i[j])
			dz[H+j] = dfj * st.f[j] * (1 - st.f[j])
			dz[2*H+j] = dgj * (1 - st.g[j]*st.g[j])
			dz[3*H+j] = doj * st.o[j] * (1 - st.o[j])
			dc[j] = dcj * st.f[j]
		}
		// Parameter gradients.
		gw := grads[m.oWx+st.tok*4*H : m.oWx+(st.tok+1)*4*H]
		vek.Add(dz, gw)
		vek.Add(dz, grads[m.oB:m.oB+4*H])
		vek.Zero(dh)
		if hPrev != nil {
			for j := 0; j < H; j++ {
				if hPrev[j] != 0 {
					vek.Axpy(hPrev[j], dz, grads[m.oWh+j*4*H:m.oWh+(j+1)*4*H])
				}
			}
			vek.Gemv(dh, p[m.oWh:m.oB], dz, H, 4*H)
		}
	}
	return loss
}

// backward keeps the historical signature for the gradient-check tests.
func (m *LSTM) backward(steps []lstmStep, y, target []float64, grads []float64) float64 {
	return m.backwardScratch(new(lstmScratch), steps, y, target, grads)
}

// TrainLSTMContext trains a model on the samples and reports the final
// mean training loss (scaled units). The context is checked once per
// epoch (the unit of long-running work), so a canceled training request
// stops within one pass over the corpus. On cancellation the
// partially-trained model is returned alongside the context's error.
//
// With cfg.Batch > 1 the epoch is walked in minibatches whose samples are
// processed by up to GOMAXPROCS goroutines. Each batch slot owns a private
// gradient buffer; after the batch the buffers are reduced in slot order
// and one optimizer step is taken. The reduction order — and therefore
// every trained weight — is a function of (seed, batch) only, never of
// GOMAXPROCS or the goroutine schedule.
func TrainLSTMContext(ctx context.Context, samples []SeqSample, cfg LSTMConfig) (*LSTM, float64, error) {
	m := NewLSTM(cfg)
	cfg = m.cfg
	opt := NewAdam(len(m.params), lstmLR, lstmClip)
	B := cfg.Batch
	if B > len(samples) && len(samples) > 0 {
		B = len(samples)
	}
	workers := min(runtime.GOMAXPROCS(0), B)

	grads := make([]float64, len(m.params))
	slots := make([][]float64, B)
	slotLoss := make([]float64, B)
	slotUsed := make([]bool, B)
	for b := range slots {
		slots[b] = make([]float64, len(m.params))
	}
	scratch := make([]*lstmScratch, workers)
	for w := range scratch {
		scratch[w] = new(lstmScratch)
	}

	// runSlot computes slot b's gradient for sample s on worker scratch sc.
	runSlot := func(b int, s SeqSample, sc *lstmScratch) {
		vek.Zero(slots[b])
		slotLoss[b] = 0
		slotUsed[b] = false
		if len(s.Tokens) == 0 {
			return
		}
		steps, y := m.forwardScratch(sc, s.Tokens)
		slotLoss[b] = m.backwardScratch(sc, steps, y, s.Target, slots[b])
		slotUsed[b] = true
	}

	rng := rand.New(rand.NewSource(cfg.Seed + 202))
	lastLoss := math.Inf(1)
	for e := 0; e < cfg.Epochs; e++ {
		if err := ctx.Err(); err != nil {
			return m, lastLoss, err
		}
		perm := rng.Perm(len(samples))
		total := 0.0
		for start := 0; start < len(perm); start += B {
			batch := perm[start:min(start+B, len(perm))]
			nw := workers
			if nw > len(batch) {
				nw = len(batch)
			}
			if nw <= 1 {
				for b, si := range batch {
					runSlot(b, samples[si], scratch[0])
				}
			} else {
				var next atomic.Int64
				var wg sync.WaitGroup
				for w := 0; w < nw; w++ {
					wg.Add(1)
					go func(sc *lstmScratch) {
						defer wg.Done()
						for {
							b := int(next.Add(1)) - 1
							if b >= len(batch) {
								return
							}
							runSlot(b, samples[batch[b]], sc)
						}
					}(scratch[w])
				}
				wg.Wait()
			}
			// Fixed-order reduce: slot 0..n-1, independent of who computed what.
			vek.Zero(grads)
			any := false
			for b := range batch {
				if !slotUsed[b] {
					continue
				}
				vek.Add(slots[b], grads)
				total += slotLoss[b]
				any = true
			}
			if any {
				opt.Step(m.params, grads)
			}
		}
		lastLoss = total / float64(len(samples))
	}
	return m, lastLoss, nil
}
