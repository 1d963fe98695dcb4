// Package core implements Clara itself: cross-platform instruction
// prediction (§3), and the porting-strategy analyses — algorithm
// identification, multicore scale-out, NF state placement, memory access
// coalescing, and NF colocation (§4).
//
// Everything here observes only what the paper's Clara can observe: the
// unported NF's IR, workload profiles gathered on the host, and black-box
// measurements of training programs on the (simulated) SmartNIC. The
// vendor compiler's internals (internal/niccc) are never inspected — they
// are only sampled through compiled training pairs.
package core

import (
	"context"
	"fmt"
	"math"

	"clara/internal/ir"
	"clara/internal/lang"
	"clara/internal/ml"
	"clara/internal/niccc"
	"clara/internal/par"
	"clara/internal/stats"
	"clara/internal/synth"
)

// PredictorConfig controls training of the §3.2 LSTM+FC model: one LSTM,
// as in the paper, trained in minibatches of predictorBatch samples.
// Corpus synthesis, compilation and minibatch gradients run on up to
// GOMAXPROCS goroutines; the trained model is bit-identical for any
// GOMAXPROCS. Every field is part of the model bundle's bytes, and so of
// its content hash.
type PredictorConfig struct {
	// TrainPrograms is the number of synthesized training programs.
	TrainPrograms int
	Hidden        int
	Epochs        int
	// CompactVocab applies the paper's vocabulary compaction; disabling it
	// is the ablation discussed in §6 ("applying LSTM without vocabulary
	// compaction shows much lower performance").
	CompactVocab bool
	// PredictAPI is the reverse-porting ablation (§3.3): instead of taking
	// framework library instruction counts from the reverse-ported code
	// (exact), the LSTM must predict them too.
	PredictAPI bool
	Seed       int64
}

// predictorBatch is the LSTM minibatch size (samples per optimizer step).
// It shapes the training dynamics, and so the exact trained weights.
const predictorBatch = 8

func (c PredictorConfig) norm() PredictorConfig {
	if c.TrainPrograms == 0 {
		c.TrainPrograms = 220
	}
	if c.Hidden == 0 {
		c.Hidden = 28
	}
	if c.Epochs == 0 {
		c.Epochs = 24
	}
	return c
}

// BlockSample pairs one basic block's word sequence with its NIC
// compilation ground truth.
type BlockSample struct {
	Words     []string
	Compute   int // NIC core compute instructions (excl. library bodies)
	APIInstrs int // library-routine instructions in the block (reverse-ported)
	Mem       int // NIC stateful memory instructions
	IRMem     int // memory accesses counted directly from the IR
	IRCompute int // compute instructions counted directly from the IR
}

// BlockCorpus extracts per-block samples from modules by compiling them
// with the vendor toolchain (accelerators off: training programs are naive
// ports, like the paper's). Modules compile in parallel; sample order is
// module order regardless of worker scheduling.
func BlockCorpus(mods []*ir.Module, compact bool) ([]BlockSample, error) {
	perMod := make([][]BlockSample, len(mods))
	err := par.ForErr(context.Background(), len(mods), func(i int) error {
		m := mods[i]
		prog, err := niccc.Compile(m, niccc.Options{})
		if err != nil {
			return err
		}
		f := m.Handler()
		samples := make([]BlockSample, 0, len(f.Blocks))
		for bi, b := range f.Blocks {
			irMem, irCompute, apiInstrs := 0, 0, 0
			for _, in := range b.Instrs {
				if in.Op.IsStatefulMem() {
					irMem++
				}
				if in.Op.IsCompute() || in.Op.IsTerminator() {
					irCompute++
				}
				if in.Op == ir.OpCall {
					if n, ok := niccc.APIInstrCount(in.Callee, niccc.AccelConfig{}); ok {
						apiInstrs += n
					}
				}
			}
			samples = append(samples, BlockSample{
				Words:     ir.BlockWords(b, compact),
				Compute:   prog.Blocks[bi].ComputeCount,
				APIInstrs: apiInstrs,
				Mem:       prog.Blocks[bi].MemCount,
				IRMem:     irMem,
				IRCompute: irCompute,
			})
		}
		perMod[i] = samples
		return nil
	})
	if err != nil {
		return nil, err
	}
	var out []BlockSample
	for _, s := range perMod {
		out = append(out, s...)
	}
	return out, nil
}

// SynthTrainingModules generates the synthesized training corpus (the data
// synthesis step of §3.2). Programs are independent — each is derived from
// seed+i — so they generate in parallel with the output in index order,
// identical to the serial corpus for any worker count.
func SynthTrainingModules(n int, prof synth.Profile, seed int64) ([]*ir.Module, error) {
	mods := make([]*ir.Module, n)
	err := par.ForErr(context.Background(), n, func(i int) error {
		m, _, err := synth.GenerateModule(synth.Config{Profile: prof, Seed: seed + int64(i)}, lang.Compile)
		if err != nil {
			return err
		}
		mods[i] = m
		return nil
	})
	if err != nil {
		return nil, err
	}
	return mods, nil
}

// CorpusProfile measures the Click element corpus to guide synthesis.
func CorpusProfile(mods []*ir.Module) synth.Profile {
	return synth.ProfileFromModules(mods)
}

// Predictor is the trained cross-platform performance predictor.
type Predictor struct {
	cfg   PredictorConfig
	Vocab *ir.Vocab
	model *ml.LSTM
	// TrainLoss is the final mean training loss (convergence telemetry).
	TrainLoss float64
}

// TrainPredictor synthesizes a corpus, compiles it with the black-box
// toolchain, and fits the LSTM+FC model.
func TrainPredictor(cfg PredictorConfig, corpusProfile synth.Profile) (*Predictor, error) {
	return TrainPredictorContext(context.Background(), cfg, corpusProfile)
}

// TrainPredictorContext is TrainPredictor with cancellation: the context
// is observed between the coarse training steps (calibration, synthesis,
// corpus compilation) and once per LSTM epoch, so a canceled training
// request — e.g. a serving process shutting down mid-start — stops within
// one epoch rather than running training to completion.
func TrainPredictorContext(ctx context.Context, cfg PredictorConfig, corpusProfile synth.Profile) (*Predictor, error) {
	cfg = cfg.norm()
	// Close the generator loop on the corpus profile so the synthesized
	// training distribution actually lands on the target (Table 1).
	probe := cfg.TrainPrograms / 5
	if probe < 10 {
		probe = 10
	}
	guide, err := synth.Calibrate(corpusProfile, probe, cfg.Seed+9999, lang.Compile)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	mods, err := SynthTrainingModules(cfg.TrainPrograms, guide, cfg.Seed+1000)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	vocab := ir.BuildVocab(mods, cfg.CompactVocab)
	samples, err := BlockCorpus(mods, cfg.CompactVocab)
	if err != nil {
		return nil, err
	}
	// The model learns the *residual* between the NIC instruction count
	// and the raw IR compute count: the fusions, expansions and spills the
	// closed-source toolchain applies are the opaque part; the IR count is
	// a visible prior. Residual targets transfer much better to program
	// shapes outside the synthesized distribution.
	seq := make([]ml.SeqSample, 0, len(samples))
	for _, s := range samples {
		if len(s.Words) == 0 {
			continue
		}
		target := float64(s.Compute - s.IRCompute)
		if cfg.PredictAPI {
			// Ablation: the model must absorb library-routine costs too.
			target = float64(s.Compute + s.APIInstrs - s.IRCompute)
		}
		seq = append(seq, ml.SeqSample{
			Tokens: vocab.Encode(s.Words),
			Target: []float64{target},
		})
	}
	model, loss, err := ml.TrainLSTMContext(ctx, seq, ml.LSTMConfig{
		Vocab: vocab.Size(), Hidden: cfg.Hidden, Out: 1,
		Epochs: cfg.Epochs, Seed: cfg.Seed, Batch: predictorBatch,
	})
	if err != nil {
		return nil, err
	}
	return &Predictor{cfg: cfg, Vocab: vocab, model: model, TrainLoss: loss}, nil
}

// PredictBlock predicts one block's NIC compute-instruction count and
// counts its stateful memory accesses directly from the IR (§3.2: memory
// accesses "have a clear correspondence to the load/store instructions at
// the IR level").
func (p *Predictor) PredictBlock(b *ir.Block) (compute float64, mem int) {
	words := ir.BlockWords(b, p.cfg.CompactVocab)
	irCompute := 0
	for _, in := range b.Instrs {
		if in.Op.IsStatefulMem() {
			mem++
		}
		if in.Op.IsCompute() || in.Op.IsTerminator() {
			irCompute++
		}
	}
	if len(words) > 0 {
		compute = float64(irCompute) + p.model.PredictRaw(p.Vocab.Encode(words))[0]
		if compute < 0 {
			compute = 0
		}
	}
	return compute, mem
}

// predictBlocksBatch is the batched core of PredictModule/Evaluate: one
// LSTM sweep over every block with a non-empty word sequence, direct IR
// counting for the rest. The batch forward is bit-identical to the
// per-sequence one, so batched predictions equal PredictBlock's
// bit-for-bit.
func (p *Predictor) predictBlocksBatch(blocks []*ir.Block) (compute []float64, mem []int) {
	compute = make([]float64, len(blocks))
	mem = make([]int, len(blocks))
	irCompute := make([]int, len(blocks))
	seqs := make([][]int, 0, len(blocks))
	seqBlock := make([]int, 0, len(blocks))
	for i, b := range blocks {
		for _, in := range b.Instrs {
			if in.Op.IsStatefulMem() {
				mem[i]++
			}
			if in.Op.IsCompute() || in.Op.IsTerminator() {
				irCompute[i]++
			}
		}
		if words := ir.BlockWords(b, p.cfg.CompactVocab); len(words) > 0 {
			seqs = append(seqs, p.Vocab.Encode(words))
			seqBlock = append(seqBlock, i)
		}
	}
	if len(seqs) > 0 {
		resid := p.model.PredictRawBatch(seqs)
		for k, i := range seqBlock {
			c := float64(irCompute[i]) + resid[k][0]
			if c < 0 {
				c = 0
			}
			compute[i] = c
		}
	}
	return compute, mem
}

// BlockPrediction is one block's predicted parameters.
type BlockPrediction struct {
	Block   int
	Compute float64
	Mem     int
	API     int // exact reverse-ported API instruction count
}

// ModulePrediction is the §3 output for one NF: its predicted performance
// parameters on the SmartNIC.
type ModulePrediction struct {
	Name         string
	Blocks       []BlockPrediction
	TotalCompute float64
	TotalMem     int
	TotalAPI     int
}

// PredictModule runs the full Figure 3 algorithm on an unported NF:
// LSTM inference for core-logic blocks, direct IR counting for stateful
// memory, and reverse-ported library costs for framework API calls. All
// blocks go through one batched LSTM sweep; results are bit-identical
// to per-block PredictBlock calls.
func (p *Predictor) PredictModule(m *ir.Module, accel niccc.AccelConfig) (*ModulePrediction, error) {
	outs, err := p.PredictModules([]*ir.Module{m}, accel)
	if err != nil {
		return nil, err
	}
	return outs[0], nil
}

// PredictModules predicts a whole batch of NFs in a single LSTM sweep —
// the fleet/serving fast path. Cross-module batching compounds with
// sequence deduplication: identical basic blocks appearing in different
// modules are inferred once.
func (p *Predictor) PredictModules(mods []*ir.Module, accel niccc.AccelConfig) ([]*ModulePrediction, error) {
	var blocks []*ir.Block
	starts := make([]int, len(mods)+1)
	for i, m := range mods {
		f := m.Handler()
		if f == nil {
			return nil, fmt.Errorf("core: module %s has no handler", m.Name)
		}
		blocks = append(blocks, f.Blocks...)
		starts[i+1] = len(blocks)
	}
	compute, mem := p.predictBlocksBatch(blocks)
	outs := make([]*ModulePrediction, len(mods))
	for i, m := range mods {
		out := &ModulePrediction{Name: m.Name}
		for bi, b := range m.Handler().Blocks {
			gi := starts[i] + bi
			api := 0
			for _, in := range b.Instrs {
				if in.Op == ir.OpCall {
					n, ok := niccc.APIInstrCount(in.Callee, accel)
					if !ok {
						return nil, fmt.Errorf("core: API %q has no reverse port", in.Callee)
					}
					api += n
				}
			}
			out.Blocks = append(out.Blocks, BlockPrediction{Block: bi, Compute: compute[gi], Mem: mem[gi], API: api})
			out.TotalCompute += compute[gi]
			out.TotalMem += mem[gi]
			out.TotalAPI += api
		}
		outs[i] = out
	}
	return outs, nil
}

// EvalResult reports prediction accuracy against the vendor toolchain's
// ground truth for one NF.
type EvalResult struct {
	Name        string
	WMAPE       float64 // per-block compute prediction error
	MemAccuracy float64 // fraction of blocks with exact memory counts
	Blocks      int
}

// Evaluate measures per-code-block accuracy on an NF (the §5.2
// methodology: compare against the instruction counts of the compiled
// port).
func (p *Predictor) Evaluate(m *ir.Module) (EvalResult, error) {
	prog, err := niccc.Compile(m, niccc.Options{})
	if err != nil {
		return EvalResult{}, err
	}
	f := m.Handler()
	var truth, pred []float64
	var memErr, memTruth float64
	computes, mems := p.predictBlocksBatch(f.Blocks)
	for bi, b := range f.Blocks {
		compute, mem := computes[bi], mems[bi]
		gt := prog.Blocks[bi].ComputeCount
		if p.cfg.PredictAPI {
			for _, in := range b.Instrs {
				if in.Op == ir.OpCall {
					if n, ok := niccc.APIInstrCount(in.Callee, niccc.AccelConfig{}); ok {
						gt += n
					}
				}
			}
		}
		if gt == 0 && len(b.Instrs) <= 1 {
			continue // empty join blocks carry no signal
		}
		truth = append(truth, float64(gt))
		pred = append(pred, compute)
		memErr += math.Abs(float64(prog.Blocks[bi].MemCount - mem))
		memTruth += float64(prog.Blocks[bi].MemCount)
	}
	res := EvalResult{Name: m.Name, WMAPE: stats.WMAPE(truth, pred), Blocks: len(truth)}
	if memTruth > 0 {
		res.MemAccuracy = 1 - memErr/memTruth
	} else {
		res.MemAccuracy = 1
	}
	return res, nil
}

// BagOfWords featurizes a word sequence as a vocabulary histogram plus a
// length feature — the representation the non-sequence baselines (DNN,
// AutoML) consume.
func BagOfWords(v *ir.Vocab, words []string) []float64 {
	x := make([]float64, v.Size()+1)
	for _, w := range words {
		x[v.Index(w)]++
	}
	x[v.Size()] = float64(len(words))
	return x
}
