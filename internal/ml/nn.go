package ml

import (
	"math"
	"math/rand"
	"sync"

	"clara/internal/ml/vek"
)

// --- MLP (the "DNN" baseline of §5.2 and §5.4) ---

// MLPConfig configures a fully connected network.
type MLPConfig struct {
	Layers []int // sizes including input and output
	Epochs int
	Seed   int64
	// Classification switches the output to softmax + cross-entropy.
	Classification bool
	TargetScale    float64 // regression target scaling
}

// mlpLR is the MLP's Adam learning rate.
const mlpLR = 0.003

func (c MLPConfig) norm() MLPConfig {
	if c.Epochs == 0 {
		c.Epochs = 60
	}
	if c.TargetScale == 0 {
		c.TargetScale = 1
	}
	return c
}

// MLP is a ReLU multilayer perceptron.
type MLP struct {
	cfg MLPConfig
	// W[l] is (out × (in+1)) row-major with bias in the last column.
	W [][]float64
}

// NewMLP allocates a randomly initialized network.
func NewMLP(cfg MLPConfig) *MLP {
	cfg = cfg.norm()
	rng := rand.New(rand.NewSource(cfg.Seed + 301))
	m := &MLP{cfg: cfg}
	for l := 0; l+1 < len(cfg.Layers); l++ {
		in, out := cfg.Layers[l], cfg.Layers[l+1]
		w := make([]float64, out*(in+1))
		randInit(rng, w, math.Sqrt(2/float64(in)))
		m.W = append(m.W, w)
	}
	return m
}

// mlpScratch holds forward activations and backward deltas for one pass.
// Not goroutine-safe; Predict* borrow one from a pool, TrainMLP keeps its
// own.
type mlpScratch struct {
	ar   vek.Arena
	acts [][]float64
}

var mlpScratchPool = sync.Pool{New: func() any { return new(mlpScratch) }}

// forwardScratch returns all layer activations (acts[0] = input, not
// copied). The returned slices live in sc's arena until its next Reset.
func (m *MLP) forwardScratch(sc *mlpScratch, x []float64) [][]float64 {
	sc.ar.Reset()
	if cap(sc.acts) < len(m.W)+1 {
		sc.acts = make([][]float64, 0, len(m.W)+1)
	}
	acts := append(sc.acts[:0], x)
	cur := x
	for l, w := range m.W {
		in := len(cur)
		out := len(w) / (in + 1)
		next := sc.ar.Take(out)
		for o := 0; o < out; o++ {
			row := w[o*(in+1) : (o+1)*(in+1)]
			next[o] = vek.Dot(row[:in], cur) + row[in]
			if l+1 < len(m.W) && next[o] < 0 {
				next[o] = 0 // ReLU on hidden layers
			}
		}
		acts = append(acts, next)
		cur = next
	}
	sc.acts = acts
	return acts
}

// forward keeps the historical signature; fresh scratch means the
// returned activations stay valid.
func (m *MLP) forward(x []float64) [][]float64 {
	return m.forwardScratch(new(mlpScratch), x)
}

// PredictVec returns the raw output vector (rescaled for regression).
// Safe for concurrent use.
func (m *MLP) PredictVec(x []float64) []float64 {
	sc := mlpScratchPool.Get().(*mlpScratch)
	out := m.forwardScratch(sc, x)
	last := append([]float64(nil), out[len(out)-1]...)
	mlpScratchPool.Put(sc)
	if !m.cfg.Classification {
		for i := range last {
			last[i] *= m.cfg.TargetScale
		}
	}
	return last
}

// Predict returns the first output (scalar regression).
func (m *MLP) Predict(x []float64) float64 { return m.PredictVec(x)[0] }

// PredictClass returns the argmax output. Safe for concurrent use.
func (m *MLP) PredictClass(x []float64) int {
	sc := mlpScratchPool.Get().(*mlpScratch)
	out := m.forwardScratch(sc, x)
	last := out[len(out)-1]
	best, bestV := 0, math.Inf(-1)
	for i, v := range last {
		if v > bestV {
			bestV = v
			best = i
		}
	}
	mlpScratchPool.Put(sc)
	return best
}

// trainStep runs one example's forward+backward on sc, accumulating into
// grads; target semantics depend on the mode.
func (m *MLP) trainStep(sc *mlpScratch, x, target []float64, grads [][]float64) float64 {
	acts := m.forwardScratch(sc, x)
	L := len(m.W)
	out := acts[L]
	delta := sc.ar.Take(len(out))
	loss := 0.0
	if m.cfg.Classification {
		// softmax + CE; target is one-hot.
		maxv := math.Inf(-1)
		for _, v := range out {
			if v > maxv {
				maxv = v
			}
		}
		var z float64
		probs := sc.ar.Take(len(out))
		for i, v := range out {
			probs[i] = math.Exp(v - maxv)
			z += probs[i]
		}
		for i := range probs {
			probs[i] /= z
			delta[i] = probs[i] - target[i]
			if target[i] > 0 {
				loss -= math.Log(probs[i] + 1e-12)
			}
		}
	} else {
		for i := range out {
			d := out[i] - target[i]/m.cfg.TargetScale
			delta[i] = d
			loss += 0.5 * d * d
		}
	}
	for l := L - 1; l >= 0; l-- {
		in := acts[l]
		w := m.W[l]
		g := grads[l]
		nin := len(in)
		prevDelta := sc.ar.Take(nin)
		for o := 0; o < len(delta); o++ {
			row := w[o*(nin+1) : (o+1)*(nin+1)]
			grow := g[o*(nin+1) : (o+1)*(nin+1)]
			d := delta[o]
			vek.Axpy(d, in, grow[:nin])
			grow[nin] += d
			vek.Axpy(d, row[:nin], prevDelta)
		}
		if l > 0 {
			// ReLU derivative on the previous layer's activations.
			for j := range prevDelta {
				if acts[l][j] <= 0 {
					prevDelta[j] = 0
				}
			}
		}
		delta = prevDelta
	}
	return loss
}

// TrainMLP trains on (X, targets), one optimizer step per sample; for
// classification, targets are one-hot rows. Returns the final mean loss.
func TrainMLP(X [][]float64, targets [][]float64, cfg MLPConfig) (*MLP, float64) {
	m := NewMLP(cfg)
	cfg = m.cfg
	nparams := 0
	for _, w := range m.W {
		nparams += len(w)
	}
	// Adam steps one flat parameter buffer against one flat gradient
	// buffer: the model's weights are re-homed into the first, and each
	// layer's gradient is a view of the second.
	paramsFlat := make([]float64, nparams)
	gradsFlat := make([]float64, nparams)
	grads := make([][]float64, len(m.W))
	off := 0
	for l, w := range m.W {
		copy(paramsFlat[off:], w)
		m.W[l] = paramsFlat[off : off+len(w)]
		grads[l] = gradsFlat[off : off+len(w)]
		off += len(w)
	}
	sc := new(mlpScratch)
	opt := NewAdam(nparams, mlpLR, 5)
	rng := rand.New(rand.NewSource(cfg.Seed + 302))
	last := 0.0
	for e := 0; e < cfg.Epochs; e++ {
		total := 0.0
		for _, i := range rng.Perm(len(X)) {
			vek.Zero(gradsFlat)
			total += m.trainStep(sc, X[i], targets[i], grads)
			opt.Step(paramsFlat, gradsFlat)
		}
		last = total / float64(len(X))
	}
	return m, last
}

// OneHot builds one-hot target rows for labels in [0, n).
func OneHot(labels []int, n int) [][]float64 {
	out := make([][]float64, len(labels))
	for i, l := range labels {
		row := make([]float64, n)
		if l >= 0 && l < n {
			row[l] = 1
		}
		out[i] = row
	}
	return out
}

// --- 1-D CNN over token sequences (the "CNN" baseline of §5.2) ---

// CNNConfig configures the sequence CNN.
type CNNConfig struct {
	Vocab       int
	Filters     int
	Epochs      int
	TargetScale float64
	Seed        int64
}

// The CNN's receptive field in tokens, its output count, and its Adam
// learning rate.
const (
	cnnWidth = 3
	cnnOut   = 1
	cnnLR    = 0.004
)

func (c CNNConfig) norm() CNNConfig {
	if c.Filters == 0 {
		c.Filters = 24
	}
	if c.Epochs == 0 {
		c.Epochs = 40
	}
	if c.TargetScale == 0 {
		c.TargetScale = 10
	}
	return c
}

// CNN is a one-layer convolutional network over one-hot token sequences
// with ReLU, global max pooling, and a linear head. One-hot input turns
// convolution into per-position weight-row lookups.
type CNN struct {
	cfg    CNNConfig
	params []float64
	// layout: W [F][Width][V], bF [F], Wo [F][Out], bo [Out]
	oW, oBF, oWo, oBo int
}

// NewCNN allocates a randomly initialized model.
func NewCNN(cfg CNNConfig) *CNN {
	cfg = cfg.norm()
	V, F, W, D := cfg.Vocab, cfg.Filters, cnnWidth, cnnOut
	m := &CNN{cfg: cfg}
	m.oW = 0
	m.oBF = F * W * V
	m.oWo = m.oBF + F
	m.oBo = m.oWo + F*D
	m.params = make([]float64, m.oBo+D)
	rng := rand.New(rand.NewSource(cfg.Seed + 401))
	randInit(rng, m.params[:m.oBF], 0.3)
	randInit(rng, m.params[m.oWo:m.oBo], 0.3)
	return m
}

// forwardInto fills caller-provided buffers with pooled activations,
// winning positions, and outputs (len F, F, D respectively).
func (m *CNN) forwardInto(tokens []int, pooled []float64, argmax []int, y []float64) {
	F, W, V, D := m.cfg.Filters, cnnWidth, m.cfg.Vocab, cnnOut
	p := m.params
	for f := 0; f < F; f++ {
		best := math.Inf(-1)
		bi := 0
		npos := len(tokens) - W + 1
		if npos < 1 {
			npos = 1
		}
		for pos := 0; pos < npos; pos++ {
			a := p[m.oBF+f]
			for d := 0; d < W; d++ {
				ti := pos + d
				if ti >= len(tokens) {
					break
				}
				a += p[m.oW+(f*W+d)*V+tokens[ti]]
			}
			if a < 0 {
				a = 0
			}
			if a > best {
				best = a
				bi = pos
			}
		}
		pooled[f] = best
		argmax[f] = bi
	}
	for d := 0; d < D; d++ {
		y[d] = p[m.oBo+d]
		for f := 0; f < F; f++ {
			y[d] += p[m.oWo+f*D+d] * pooled[f]
		}
	}
}

// forward returns pooled activations, winning positions, and outputs.
func (m *CNN) forward(tokens []int) (pooled []float64, argmax []int, y []float64) {
	pooled = make([]float64, m.cfg.Filters)
	argmax = make([]int, m.cfg.Filters)
	y = make([]float64, cnnOut)
	m.forwardInto(tokens, pooled, argmax, y)
	return pooled, argmax, y
}

// Predict returns rescaled, clamped outputs.
func (m *CNN) Predict(tokens []int) []float64 {
	if len(tokens) == 0 {
		return make([]float64, cnnOut)
	}
	_, _, y := m.forward(tokens)
	out := make([]float64, len(y))
	for i := range y {
		out[i] = y[i] * m.cfg.TargetScale
		if out[i] < 0 {
			out[i] = 0
		}
	}
	return out
}

// TrainCNN trains the CNN on sequence samples.
func TrainCNN(samples []SeqSample, cfg CNNConfig) (*CNN, float64) {
	m := NewCNN(cfg)
	cfg = m.cfg
	F, W, V, D := cfg.Filters, cnnWidth, cfg.Vocab, cnnOut
	opt := NewAdam(len(m.params), cnnLR, 5)
	grads := make([]float64, len(m.params))
	pooled := make([]float64, F)
	argmax := make([]int, F)
	y := make([]float64, D)
	rng := rand.New(rand.NewSource(cfg.Seed + 402))
	last := math.Inf(1)
	for e := 0; e < cfg.Epochs; e++ {
		perm := rng.Perm(len(samples))
		total := 0.0
		for _, si := range perm {
			s := samples[si]
			if len(s.Tokens) == 0 {
				continue
			}
			m.forwardInto(s.Tokens, pooled, argmax, y)
			vek.Zero(grads)
			for d := 0; d < D; d++ {
				diff := y[d] - s.Target[d]/cfg.TargetScale
				total += 0.5 * diff * diff
				grads[m.oBo+d] += diff
				for f := 0; f < F; f++ {
					grads[m.oWo+f*D+d] += diff * pooled[f]
					if pooled[f] > 0 { // ReLU gate
						gpool := m.params[m.oWo+f*D+d] * diff
						grads[m.oBF+f] += gpool
						pos := argmax[f]
						for dd := 0; dd < W; dd++ {
							ti := pos + dd
							if ti >= len(s.Tokens) {
								break
							}
							grads[m.oW+(f*W+dd)*V+s.Tokens[ti]] += gpool
						}
					}
				}
			}
			opt.Step(m.params, grads)
		}
		last = total / float64(len(samples))
	}
	return m, last
}
