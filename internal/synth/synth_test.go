package synth

import (
	"math"
	"strings"
	"testing"

	"clara/internal/ir"
	"clara/internal/lang"
)

func TestGeneratedProgramsCompile(t *testing.T) {
	prof := UniformProfile()
	for seed := int64(0); seed < 60; seed++ {
		src := Generate(Config{Profile: prof, Seed: seed})
		m, err := lang.Compile("synth", src)
		if err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, src)
		}
		if err := ir.Verify(m); err != nil {
			t.Fatalf("seed %d: verify: %v", seed, err)
		}
	}
}

func TestGenerationDeterministic(t *testing.T) {
	cfg := Config{Profile: UniformProfile(), Seed: 42}
	if Generate(cfg) != Generate(cfg) {
		t.Error("generator not deterministic")
	}
	if Generate(cfg) == Generate(Config{Profile: UniformProfile(), Seed: 43}) {
		t.Error("different seeds produced identical programs")
	}
}

func TestProfileFromModules(t *testing.T) {
	src := `
map<u64,u64> m[1024];
global u32 c;
void handle() {
	u64 k = u64(pkt_ip_src());
	if (map_contains(m, k)) {
		c += 1;
	}
	for (u32 i = 0; i < 8; i += 1) {
		c ^= i;
	}
	pkt_send(0);
}
`
	mod, err := lang.Compile("p", src)
	if err != nil {
		t.Fatal(err)
	}
	p := ProfileFromModules([]*ir.Module{mod})
	if p.AvgHandlerInstrs == 0 {
		t.Error("no instructions measured")
	}
	if p.BranchPerInstr == 0 {
		t.Error("branchiness not measured")
	}
	if p.LoopFrac == 0 {
		t.Error("loop fraction not measured")
	}
	if p.StatePerInstr == 0 {
		t.Error("state rate not measured")
	}
	var total float64
	for _, w := range p.OpWeights {
		total += w
	}
	if total < 0.99 || total > 1.01 {
		t.Errorf("op weights sum to %f", total)
	}

	// Vector calls are state accesses, as map calls are; only the packet
	// API counts as API calls.
	vsrc := `
vec<u64> v[8];
void handle() {
	vec_push(v, u64(pkt_ip_src()));
	if (vec_get(v, 0) == 1) {
		pkt_drop();
	}
	pkt_send(0);
}
`
	vmod, err := lang.Compile("v", vsrc)
	if err != nil {
		t.Fatal(err)
	}
	vp := ProfileFromModules([]*ir.Module{vmod})
	if state := vp.StatePerInstr * vp.AvgHandlerInstrs; math.Round(state) != 2 {
		t.Errorf("counted %v state accesses, want 2 (vec_push, vec_get)", state)
	}
	if api := vp.APIPerInstr * vp.AvgHandlerInstrs; math.Round(api) != 3 {
		t.Errorf("counted %v API calls, want 3 (pkt_ip_src, pkt_drop, pkt_send)", api)
	}
}

func TestGuidedGenerationTracksProfile(t *testing.T) {
	// A xor-heavy profile should produce xor-heavy programs.
	xorProf := UniformProfile()
	for k := range xorProf.OpWeights {
		xorProf.OpWeights[k] = 0.01
	}
	xorProf.OpWeights["^"] = 0.92
	var mods []*ir.Module
	for seed := int64(0); seed < 20; seed++ {
		m, _, err := GenerateModule(Config{Profile: xorProf, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		mods = append(mods, m)
	}
	got := ProfileFromModules(mods)
	if got.OpWeights["^"] < 0.4 {
		t.Errorf("xor weight %f, want dominant", got.OpWeights["^"])
	}
}

func TestStateBiasShiftsIntensity(t *testing.T) {
	prof := UniformProfile()
	low, high := 0.0, 0.0
	for seed := int64(0); seed < 15; seed++ {
		ml, _, err := GenerateModule(Config{Profile: prof, Seed: seed, StateBias: 0.2})
		if err != nil {
			t.Fatal(err)
		}
		mh, _, err := GenerateModule(Config{Profile: prof, Seed: seed, StateBias: 4})
		if err != nil {
			t.Fatal(err)
		}
		pl := ProfileFromModules([]*ir.Module{ml})
		ph := ProfileFromModules([]*ir.Module{mh})
		low += pl.StatePerInstr
		high += ph.StatePerInstr
	}
	if high <= low {
		t.Errorf("state bias had no effect: low=%f high=%f", low, high)
	}
}

func TestAlgoCorpusCompilesAndIsLabeled(t *testing.T) {
	corpus := AlgoCorpus(12, 77)
	if len(corpus) != 36 {
		t.Fatalf("corpus size %d", len(corpus))
	}
	counts := map[int]int{}
	for _, p := range corpus {
		counts[p.Label]++
		m, err := lang.Compile(p.Name, p.Src)
		if err != nil {
			t.Fatalf("%s: %v\n%s", p.Name, err, p.Src)
		}
		if err := ir.Verify(m); err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
	}
	if counts[LabelCRC] != 12 || counts[LabelLPM] != 12 || counts[LabelNone] != 12 {
		t.Errorf("label counts %v", counts)
	}
}

func TestCRCVariantsDiffer(t *testing.T) {
	a := CRCVariant(1).Src
	b := CRCVariant(2).Src
	if a == b {
		t.Error("CRC variants identical across seeds")
	}
	if !strings.Contains(a, "pkt_payload") {
		t.Error("CRC variant does not walk the payload")
	}
}

func TestLPMVariantsCoverKinds(t *testing.T) {
	kinds := map[string]bool{}
	for seed := int64(0); seed < 30; seed++ {
		src := LPMVariant(seed).Src
		switch {
		case strings.Contains(src, "trie_left"):
			kinds["trie"] = true
		case strings.Contains(src, "routes"):
			kinds["maskscan"] = true
		case strings.Contains(src, "rule_prefix"):
			kinds["scan"] = true
		}
	}
	if len(kinds) != 3 {
		t.Errorf("LPM kinds seen: %v", kinds)
	}
}
