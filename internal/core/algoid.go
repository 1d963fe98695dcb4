package core

import (
	"sort"

	"clara/internal/analysis"
	"clara/internal/click"
	"clara/internal/ir"
	"clara/internal/lang"
	"clara/internal/ml"
	"clara/internal/synth"
)

// This file implements algorithm identification (§4.1): classify NF code
// as containing CRC or LPM logic that the SmartNIC's ASIC engines can
// replace. Features are mined instruction subsequences (the Sequential
// Pattern Extraction of [29]) selected for high support and confidence,
// augmented with the manual features the paper names (bitwise-operation
// density, bounded-loop pointer chasing), classified by a one-vs-rest SVM.

// Algorithm labels (aliases of the synth corpus labels).
const (
	AlgoNone = synth.LabelNone
	AlgoCRC  = synth.LabelCRC
	AlgoLPM  = synth.LabelLPM
)

// AlgoName renders a label.
func AlgoName(label int) string {
	switch label {
	case AlgoCRC:
		return "CRC"
	case AlgoLPM:
		return "LPM"
	default:
		return "none"
	}
}

// spe mines frequent word n-grams per class.
type gramStat struct {
	gram    string
	support [3]float64 // per-label program frequency
}

// blockGrams returns the distinct word n-grams (n = 2..3) of the given
// blocks (subsequences never cross block boundaries, like the paper's
// per-block sequences).
func blockGrams(m *ir.Module, blocks []int) map[string]bool {
	out := map[string]bool{}
	f := m.Handler()
	for _, bi := range blocks {
		words := ir.BlockWords(f.Blocks[bi], true)
		for n := 2; n <= 3; n++ {
			for i := 0; i+n <= len(words); i++ {
				g := words[i]
				for k := 1; k < n; k++ {
					g += "|" + words[i+k]
				}
				out[g] = true
			}
		}
	}
	return out
}

func allBlocks(m *ir.Module) []int {
	f := m.Handler()
	out := make([]int, len(f.Blocks))
	//claravet:allow out is a slice here (the map named out is blockGrams')
	for i := range out {
		out[i] = i
	}
	return out
}

// algoModule holds what algorithm identification derives from a module
// once, for every region it featurizes: the CFG, the defining instruction
// of each value, and the stores to each stack slot (locals are explicit
// slot traffic in the IR, so a dependence chain flows through slot stores).
type algoModule struct {
	m          *ir.Module
	cfg        *analysis.CFG
	defs       []*ir.Instr
	slotStores [][]*ir.Instr
}

func newAlgoModule(m *ir.Module) *algoModule {
	f := m.Handler()
	am := &algoModule{
		m:          m,
		cfg:        analysis.BuildCFG(f),
		defs:       make([]*ir.Instr, f.NumVals),
		slotStores: make([][]*ir.Instr, f.NSlots),
	}
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.ID >= 0 {
				am.defs[in.ID] = in
			}
			if in.Op == ir.OpLStore {
				am.slotStores[in.Slot] = append(am.slotStores[in.Slot], in)
			}
		}
	}
	return am
}

// loopRegions decomposes the handler into candidate algorithm regions: the
// connected loop components of the CFG, each widened by one successor ring
// (exit tests and epilogues carry signal too). The paper's classifier
// labels NF code blocks, not whole programs (§4.1); region granularity is
// what lets a CRC kernel inside a large NF stand out.
func loopRegions(cfg *analysis.CFG) [][]int {
	seen := make([]bool, len(cfg.Succs))
	var regions [][]int
	for start := range cfg.Succs {
		if !cfg.InLoop(start) || seen[start] {
			continue
		}
		// Flood-fill the loop component over CFG edges restricted to loop
		// blocks.
		var comp []int
		stack := []int{start}
		seen[start] = true
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp = append(comp, u)
			for _, v := range cfg.Succs[u] {
				if cfg.InLoop(v) && !seen[v] {
					seen[v] = true
					stack = append(stack, v)
				}
			}
		}
		// Widen with the immediate non-loop successors.
		ring := map[int]bool{}
		for _, u := range comp {
			for _, v := range cfg.Succs[u] {
				if !cfg.InLoop(v) {
					ring[v] = true
				}
			}
		}
		//claravet:allow order-insensitive: comp is sorted right below
		for v := range ring {
			comp = append(comp, v)
		}
		sort.Ints(comp)
		regions = append(regions, comp)
	}
	return regions
}

// AlgoIdentifier is the trained §4.1 classifier.
type AlgoIdentifier struct {
	Grams     []string // selected subsequence features, in feature order
	GramClass []int    // the positive class each gram was mined for
	svm       *ml.SVM
}

// AlgoFeatureCount is the number of manual features appended after the
// mined subsequences and the two per-class gram-coverage aggregates.
const AlgoFeatureCount = 6

// manualFeaturesFor computes the hand-crafted features of §4.1 over a
// block subset.
func manualFeaturesFor(am *algoModule, blocks []int) []float64 {
	f := am.m.Handler()
	var total, bitwise, shifts, cmps float64
	pointerChase := 0.0
	loopState := 0.0

	// dependsOnLoad reports whether v's def chain (bounded) reaches a
	// stateful load — the "moving from one address to a child address"
	// trait.
	visitedSlots := make([]bool, f.NSlots)
	var dependsOnLoad func(v ir.Value, depth int) bool
	dependsOnLoad = func(v ir.Value, depth int) bool {
		if depth <= 0 || v.Kind != ir.VInstr {
			return false
		}
		in := am.defs[v.ID]
		if in == nil {
			return false
		}
		switch in.Op {
		case ir.OpGLoad:
			return true
		case ir.OpLLoad:
			if visitedSlots[in.Slot] {
				return false
			}
			visitedSlots[in.Slot] = true
			for _, st := range am.slotStores[in.Slot] {
				if dependsOnLoad(st.Args[0], depth-1) {
					return true
				}
			}
			return false
		}
		for _, a := range in.Args {
			if dependsOnLoad(a, depth-1) {
				return true
			}
		}
		return false
	}

	for _, bi := range blocks {
		b := f.Blocks[bi]
		for _, in := range b.Instrs {
			if !in.Op.IsCompute() && !in.Op.IsStatefulMem() {
				continue
			}
			total++
			switch in.Op {
			case ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpNot:
				bitwise++
			case ir.OpShl, ir.OpLShr:
				shifts++
			case ir.OpICmp:
				cmps++
			}
			if am.cfg.InLoop(bi) && in.Op.IsStatefulMem() {
				loopState++
				if in.Op == ir.OpGLoad && len(in.Args) == 1 {
					clear(visitedSlots)
					if dependsOnLoad(in.Args[0], 8) {
						pointerChase = 1
					}
				}
			}
		}
	}
	if total == 0 {
		total = 1
	}
	return []float64{
		bitwise / total,
		shifts / total,
		cmps / total,
		pointerChase,
		loopState / total,
		float64(len(blocks)) / 16,
	}
}

// AlgoTrainCorpus builds the algorithm-ID training corpus: n synthesized
// variants per class, plus the library's non-CRC/LPM elements as extra
// real negatives.
func AlgoTrainCorpus(n int, seed int64) []synth.LabeledProgram {
	corpus := synth.AlgoCorpus(n, seed)
	for _, name := range []string{"tcpack", "udpipencap", "forcetcp", "aggcounter", "timefilter"} {
		corpus = append(corpus, synth.LabeledProgram{
			Name: "click_" + name, Src: click.Get(name).Src, Label: synth.LabelNone,
		})
	}
	return corpus
}

// TrainAlgoIdentifier mines subsequence features from the labeled corpus
// and fits the SVM. maxGrams bounds the mined feature count.
func TrainAlgoIdentifier(corpus []synth.LabeledProgram, maxGrams int, seed int64) (*AlgoIdentifier, error) {
	if maxGrams == 0 {
		maxGrams = 48
	}
	type labeled struct {
		m     *ir.Module
		label int
	}
	var progs []labeled
	counts := [3]float64{}
	gramFreq := map[string]*gramStat{}
	for _, p := range corpus {
		m, err := lang.Compile(p.Name, p.Src)
		if err != nil {
			return nil, err
		}
		progs = append(progs, labeled{m, p.Label})
		counts[p.Label]++
		for g := range blockGrams(m, allBlocks(m)) {
			gs := gramFreq[g]
			if gs == nil {
				gs = &gramStat{gram: g}
				gramFreq[g] = gs
			}
			gs.support[p.Label]++
		}
	}

	// Select grams with high support in a positive class and high
	// confidence (rarely present elsewhere).
	type scored struct {
		gram  string
		score float64
	}
	type classScored struct {
		gram  string
		cls   int
		score float64
	}
	var cands []classScored
	//claravet:allow order-insensitive: cands is sorted below by (score, gram, class), a total order
	for _, gs := range gramFreq {
		for _, cls := range []int{AlgoCRC, AlgoLPM} {
			if counts[cls] == 0 {
				continue
			}
			support := gs.support[cls] / counts[cls]
			othersN := counts[AlgoNone] + counts[3-cls]
			others := 0.0
			if othersN > 0 {
				others = (gs.support[AlgoNone] + gs.support[3-cls]) / othersN
			}
			confidence := support / (support + others + 1e-9)
			if support >= 0.4 && confidence >= 0.7 {
				cands = append(cands, classScored{gs.gram, cls, support * confidence})
			}
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].score != cands[j].score {
			return cands[i].score > cands[j].score
		}
		if cands[i].gram != cands[j].gram {
			return cands[i].gram < cands[j].gram
		}
		return cands[i].cls < cands[j].cls
	})
	seen := map[string]bool{}
	id := &AlgoIdentifier{}
	for _, c := range cands {
		if seen[c.gram] {
			continue
		}
		seen[c.gram] = true
		id.Grams = append(id.Grams, c.gram)
		id.GramClass = append(id.GramClass, c.cls)
		if len(id.Grams) >= maxGrams {
			break
		}
	}

	X := make([][]float64, len(progs))
	y := make([]int, len(progs))
	for i, p := range progs {
		X[i] = id.svmFeatures(id.Features(p.m))
		y[i] = p.label
	}
	id.svm = ml.FitSVM(X, y, ml.SVMConfig{Epochs: 40, Seed: seed})
	return id, nil
}

// svmFeatures projects the full feature vector onto the generalizing
// summary the SVM classifies on: the per-class subsequence coverage
// aggregates plus the manual features. Individual gram indicators stay
// available (Features) for the PCA view and the baseline models, but a
// hyperplane over thousands of synthetic-corpus-specific indicators
// overfits to the synthesizer's idioms; the coverage fractions carry the
// same signal and transfer to real elements.
func (id *AlgoIdentifier) svmFeatures(x []float64) []float64 {
	return x[len(id.Grams):]
}

// featuresForBlocks builds one region's feature vector: mined subsequence
// indicators, per-class gram-coverage aggregates (fraction of each class's
// signature subsequences present), and the manual features.
func (id *AlgoIdentifier) featuresForBlocks(am *algoModule, blocks []int) []float64 {
	grams := blockGrams(am.m, blocks)
	x := make([]float64, len(id.Grams)+2+AlgoFeatureCount)
	classHits := [3]float64{}
	classTotal := [3]float64{}
	for i, g := range id.Grams {
		classTotal[id.GramClass[i]]++
		if grams[g] {
			x[i] = 1
			classHits[id.GramClass[i]]++
		}
	}
	for k, cls := range []int{AlgoCRC, AlgoLPM} {
		if classTotal[cls] > 0 {
			x[len(id.Grams)+k] = classHits[cls] / classTotal[cls]
		}
	}
	copy(x[len(id.Grams)+2:], manualFeaturesFor(am, blocks))
	return x
}

// Features builds the module-level feature vector: per-loop-region
// features, max-pooled. Pooling keeps an algorithm kernel visible inside a
// large NF — exactly why the paper labels code blocks rather than whole
// programs.
func (id *AlgoIdentifier) Features(m *ir.Module) []float64 {
	return id.features(newAlgoModule(m))
}

func (id *AlgoIdentifier) features(am *algoModule) []float64 {
	regions := loopRegions(am.cfg)
	if len(regions) == 0 {
		return id.featuresForBlocks(am, allBlocks(am.m))
	}
	pooled := id.featuresForBlocks(am, regions[0])
	for _, r := range regions[1:] {
		x := id.featuresForBlocks(am, r)
		for i, v := range x {
			if v > pooled[i] {
				pooled[i] = v
			}
		}
	}
	return pooled
}

// Classify labels a module with the accelerator algorithm it contains (or
// AlgoNone). Programs without loops are structurally incapable of either
// algorithm (both are iterative), so they short-circuit to none — one of
// the manually-engineered decision rules of §4.1.
func (id *AlgoIdentifier) Classify(m *ir.Module) int {
	am := newAlgoModule(m)
	if len(am.cfg.NaturalLoops()) == 0 {
		return AlgoNone
	}
	return id.svm.PredictClass(id.svmFeatures(id.features(am)))
}

// FeatureDataset featurizes a labeled corpus (shared by the baseline
// classifiers and the PCA view of Figure 10a).
func (id *AlgoIdentifier) FeatureDataset(corpus []synth.LabeledProgram) (X [][]float64, y []int, err error) {
	for _, p := range corpus {
		m, err := lang.Compile(p.Name, p.Src)
		if err != nil {
			return nil, nil, err
		}
		X = append(X, id.Features(m))
		y = append(y, p.Label)
	}
	return X, y, nil
}
