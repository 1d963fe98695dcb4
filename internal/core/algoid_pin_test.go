package core

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"
	"sort"
	"testing"

	"clara/internal/click"
	"clara/internal/ir"
	"clara/internal/lang"
)

// algoFeaturesHash is the sha256 TestAlgoFeaturesPinned expects. It moves
// only when what the static half derives from a module's IR does: a loop
// region, a manual or subsequence feature, a label, or the corpus profile
// that guides synthesis.
const algoFeaturesHash = "66cc7e642913dd108e2baa3bbf7504535e0752275fee5a20431821d6d35025f6"

// TestAlgoFeaturesPinned pins the IR-derived facts that only the model hash
// saw before, and then only indirectly: one sha256 over the bits of every
// algorithm-ID feature and the Classify label of each library element and
// each program of the quick training corpus (the identifier trained as
// quick training trains it), then every field of the synthesizer profile
// measured over the Table 2 elements.
func TestAlgoFeaturesPinned(t *testing.T) {
	corpus := AlgoTrainCorpus(12, 42)
	id, err := TrainAlgoIdentifier(corpus, 48, 42)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	put := func(m *ir.Module) {
		fmt.Fprintf(h, "%s\x00", m.Name)
		for _, v := range id.Features(m) {
			putFloat(h, v)
		}
		fmt.Fprintf(h, "%d\x00", id.Classify(m))
	}
	for _, e := range click.Library() {
		put(e.MustModule())
	}
	for _, p := range corpus {
		m, err := lang.Compile(p.Name, p.Src)
		if err != nil {
			t.Fatal(err)
		}
		put(m)
	}
	mods, err := click.Modules(click.Table2Order)
	if err != nil {
		t.Fatal(err)
	}
	prof := CorpusProfile(mods)
	ops := make([]string, 0, len(prof.OpWeights))
	for op := range prof.OpWeights {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	for _, op := range ops {
		fmt.Fprintf(h, "%s\x00", op)
		putFloat(h, prof.OpWeights[op])
	}
	for _, v := range []float64{prof.BranchPerInstr, prof.LoopFrac, prof.StatePerInstr, prof.APIPerInstr, prof.AvgHandlerInstrs} {
		putFloat(h, v)
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != algoFeaturesHash {
		t.Errorf("algorithm-ID features or corpus profile moved: sha256 %s, want %s", got, algoFeaturesHash)
	}
}

func putFloat(h hash.Hash, v float64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
	h.Write(b[:])
}
