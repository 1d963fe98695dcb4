package ir

import (
	"fmt"
	"sort"
)

// This file implements the paper's "vocabulary compaction" (§3.2): each IR
// instruction is abstracted into a word that keeps the opcode, the result
// type, the comparison predicate, the abstracted operand kinds (VAR, INT,
// PARAM), and — for framework calls — the callee name (the analog of
// preserving "well-defined header field names"). Concrete variable names
// and constants are dropped, shrinking the vocabulary to a few hundred
// distinct words so that plain one-hot encoding works.

// Word abstracts one instruction for sequence models.
func Word(in *Instr, compactOperands bool) string {
	s := in.Op.String()
	if in.Op == OpICmp {
		s += "." + in.Pred.String()
	}
	if in.Ty != Void {
		s += "." + in.Ty.String()
	}
	switch in.Op {
	case OpCall:
		s += "@" + in.Callee
	case OpGLoad, OpGStore:
		// Keep only the access shape (indexed or scalar), not the name.
		if len(in.Args) > 0 && in.Op == OpGLoad || len(in.Args) > 1 && in.Op == OpGStore {
			s += ".idx"
		}
	}
	for _, a := range in.Args {
		if compactOperands {
			switch a.Kind {
			case VInstr:
				s += ",VAR"
			case VConst:
				s += ",INT"
			}
		} else {
			// Ablation mode: raw operands blow up the vocabulary.
			s += "," + a.String()
		}
	}
	return s
}

// BlockWords returns the word sequence for a basic block. Terminators are
// included: branch structure influences what the NIC compiler fuses.
func BlockWords(b *Block, compact bool) []string {
	ws := make([]string, 0, len(b.Instrs))
	for _, in := range b.Instrs {
		ws = append(ws, Word(in, compact))
	}
	return ws
}

// Vocab maps words to dense indices for one-hot encoding.
type Vocab struct {
	index map[string]int
	words []string
}

// NewVocab returns an empty vocabulary containing only the unknown word.
func NewVocab() *Vocab {
	v := &Vocab{index: make(map[string]int)}
	v.Add(UnknownWord)
	return v
}

// UnknownWord is the out-of-vocabulary token.
const UnknownWord = "<unk>"

// Add inserts a word (idempotently) and returns its index.
func (v *Vocab) Add(w string) int {
	if i, ok := v.index[w]; ok {
		return i
	}
	i := len(v.words)
	v.index[w] = i
	v.words = append(v.words, w)
	return i
}

// Index returns the index of w, or the unknown index if absent.
func (v *Vocab) Index(w string) int {
	if i, ok := v.index[w]; ok {
		return i
	}
	return v.index[UnknownWord]
}

// Size returns the number of distinct words (including <unk>).
func (v *Vocab) Size() int { return len(v.words) }

// Words returns the vocabulary in index order.
func (v *Vocab) Words() []string { return append([]string(nil), v.words...) }

// Encode maps a word sequence to its index sequence.
func (v *Vocab) Encode(words []string) []int {
	out := make([]int, len(words))
	for i, w := range words {
		out[i] = v.Index(w)
	}
	return out
}

// VocabFromWords reconstructs a vocabulary from its index-ordered word
// list (the inverse of Words, used by model-bundle decoding). The word at
// index i keeps index i, so token encodings match the original exactly.
func VocabFromWords(words []string) (*Vocab, error) {
	v := &Vocab{index: make(map[string]int, len(words))}
	for i, w := range words {
		if _, dup := v.index[w]; dup {
			return nil, fmt.Errorf("ir: duplicate vocabulary word %q at index %d", w, i)
		}
		v.index[w] = i
		v.words = append(v.words, w)
	}
	if _, ok := v.index[UnknownWord]; !ok {
		return nil, fmt.Errorf("ir: vocabulary word list lacks %q", UnknownWord)
	}
	return v, nil
}

// BuildVocab constructs a vocabulary from a corpus of modules.
func BuildVocab(mods []*Module, compact bool) *Vocab {
	v := NewVocab()
	for _, m := range mods {
		for _, b := range m.blocks() {
			for _, in := range b.Instrs {
				v.Add(Word(in, compact))
			}
		}
	}
	return v
}

// OpcodeDistribution computes the normalized opcode histogram of a corpus,
// the quantity Table 1's distribution distances are measured over.
func OpcodeDistribution(mods []*Module) map[string]float64 {
	counts := make(map[string]float64)
	var total float64
	for _, m := range mods {
		for _, b := range m.blocks() {
			for _, in := range b.Instrs {
				key := in.Op.String()
				if in.Op == OpICmp {
					key += "." + in.Pred.String()
				}
				counts[key]++
				total++
			}
		}
	}
	if total > 0 {
		for k := range counts {
			counts[k] /= total
		}
	}
	return counts
}

// AlignDistributions maps two histograms onto a shared support and returns
// the two aligned probability vectors.
func AlignDistributions(p, q map[string]float64) (pv, qv []float64) {
	keys := make(map[string]struct{})
	for k := range p {
		keys[k] = struct{}{}
	}
	for k := range q {
		keys[k] = struct{}{}
	}
	ks := make([]string, 0, len(keys))
	for k := range keys {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	pv = make([]float64, len(ks))
	qv = make([]float64, len(ks))
	for i, k := range ks {
		pv[i] = p[k]
		qv[i] = q[k]
	}
	return pv, qv
}
