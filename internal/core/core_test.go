package core

import (
	"math"
	"testing"

	"clara/internal/click"
	"clara/internal/ir"
	"clara/internal/isa"
	"clara/internal/lang"
	"clara/internal/niccc"
	"clara/internal/nicsim"
	"clara/internal/stats"
	"clara/internal/synth"
	"clara/internal/traffic"
)

// tinyPredictor trains a small-but-real predictor shared across tests.
var tinyPredictor *Predictor

func getPredictor(t *testing.T) *Predictor {
	t.Helper()
	if tinyPredictor != nil {
		return tinyPredictor
	}
	mods, err := click.Modules(click.Table2Order)
	if err != nil {
		t.Fatal(err)
	}
	prof := CorpusProfile(mods)
	p, err := TrainPredictor(PredictorConfig{
		TrainPrograms: 80, Hidden: 20, Epochs: 10, CompactVocab: true, Seed: 7,
	}, prof)
	if err != nil {
		t.Fatal(err)
	}
	tinyPredictor = p
	return p
}

func TestPredictorLearnsAndEvaluates(t *testing.T) {
	p := getPredictor(t)
	if math.IsNaN(p.TrainLoss) || math.IsInf(p.TrainLoss, 0) {
		t.Fatalf("diverged: %f", p.TrainLoss)
	}
	var wmapes []float64
	for _, name := range []string{"tcpack", "udpipencap", "aggcounter", "mazunat"} {
		m := click.Get(name).MustModule()
		res, err := p.Evaluate(m)
		if err != nil {
			t.Fatal(err)
		}
		if math.IsNaN(res.WMAPE) {
			t.Fatalf("%s: NaN WMAPE", name)
		}
		if res.MemAccuracy < 0.9 {
			t.Errorf("%s: memory accuracy %f below the paper's 96.4%% floor", name, res.MemAccuracy)
		}
		wmapes = append(wmapes, res.WMAPE)
	}
	if m := stats.Mean(wmapes); m > 0.6 {
		t.Errorf("mean WMAPE %f too high even for a tiny training run", m)
	}
}

func TestPredictModuleAggregates(t *testing.T) {
	p := getPredictor(t)
	m := click.Get("mazunat").MustModule()
	mp, err := p.PredictModule(m, niccc.AccelConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if mp.TotalCompute <= 0 || mp.TotalMem <= 0 || mp.TotalAPI <= 0 {
		t.Errorf("degenerate prediction: %+v", mp)
	}
	if len(mp.Blocks) != len(m.Handler().Blocks) {
		t.Errorf("blocks %d != %d", len(mp.Blocks), len(m.Handler().Blocks))
	}
	// API counts are exact: software checksum dominates in the naive port.
	accel := niccc.AccelConfig{CsumEngine: true}
	mpA, err := p.PredictModule(m, accel)
	if err != nil {
		t.Fatal(err)
	}
	if mpA.TotalAPI >= mp.TotalAPI {
		t.Errorf("csum engine should shrink API instructions: %d vs %d", mpA.TotalAPI, mp.TotalAPI)
	}
}

func TestBlockCorpusGroundTruth(t *testing.T) {
	m := click.Get("aggcounter").MustModule()
	samples, err := BlockCorpus([]*ir.Module{m}, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != len(m.Handler().Blocks) {
		t.Fatalf("%d samples for %d blocks", len(samples), len(m.Handler().Blocks))
	}
	totC, totM := 0, 0
	for _, s := range samples {
		totC += s.Compute
		totM += s.Mem
		if s.Mem > s.IRMem {
			t.Errorf("NIC mem count %d exceeds IR count %d", s.Mem, s.IRMem)
		}
	}
	if totC == 0 || totM == 0 {
		t.Error("empty ground truth")
	}
}

func TestAlgoIdentifierPrecisionRecall(t *testing.T) {
	train := synth.AlgoCorpus(24, 100)
	test := synth.AlgoCorpus(16, 9000)
	id, err := TrainAlgoIdentifier(train, 48, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(id.Grams) == 0 {
		t.Fatal("no subsequence features mined")
	}
	var truth, pred []int
	for _, p := range test {
		m, err := lang.Compile(p.Name, p.Src)
		if err != nil {
			t.Fatal(err)
		}
		truth = append(truth, p.Label)
		pred = append(pred, id.Classify(m))
	}
	prec, rec := stats.PrecisionRecall(truth, pred)
	if prec < 0.75 || rec < 0.7 {
		t.Errorf("precision %.2f / recall %.2f too low", prec, rec)
	}
}

func TestAlgoIdentifierOnRealElements(t *testing.T) {
	id, err := TrainAlgoIdentifier(synth.AlgoCorpus(24, 100), 48, 5)
	if err != nil {
		t.Fatal(err)
	}
	if got := id.Classify(click.Get("iplookup").MustModule()); got != AlgoLPM {
		t.Errorf("iplookup classified as %s, want LPM", AlgoName(got))
	}
	if got := id.Classify(click.Get("wepdecap").MustModule()); got != AlgoCRC {
		t.Errorf("wepdecap classified as %s, want CRC", AlgoName(got))
	}
	if got := id.Classify(click.Get("tcpack").MustModule()); got != AlgoNone {
		t.Errorf("tcpack classified as %s, want none", AlgoName(got))
	}
}

func TestManualFeaturesPointerChase(t *testing.T) {
	trie := click.Get("iplookup").MustModule()
	f := manualFeatures(trie)
	if f[3] != 1 {
		t.Error("trie walk not flagged as pointer chasing")
	}
	plain := click.Get("anonipaddr").MustModule()
	if manualFeatures(plain)[3] != 0 {
		t.Error("stateless NF flagged as pointer chasing")
	}
}

func TestProfileOnHost(t *testing.T) {
	e := click.Get("udpcount")
	prof, err := ProfileOnHost(e.MustModule(), ProfileSetup{Setup: e.Setup}, traffic.MediumMix, 400)
	if err != nil {
		t.Fatal(err)
	}
	if prof.GlobalFreq["src_count"] == 0 {
		t.Error("map accesses not profiled")
	}
	if prof.GlobalFreq["udp_pkts"] == 0 {
		t.Error("scalar accesses not profiled")
	}
	v := prof.AccessVector("udp_pkts")
	var sum float64
	for _, x := range v {
		sum += x
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("access vector sums to %f", sum)
	}
	if prof.AccessVector("no_such_global") != nil {
		t.Error("phantom access vector")
	}
}

// TestScaleoutFeaturesFixedSumOrder pins the accesses-per-packet feature to
// one summation order. udpcount's five per-global frequencies add up to
// different float64s depending on the order they are summed in; a sum over
// the GlobalFreq map followed Go's randomized iteration order, so the
// scale-out features (and every model trained on them) moved run to run.
func TestScaleoutFeaturesFixedSumOrder(t *testing.T) {
	e := click.Get("udpcount")
	mod := e.MustModule()
	prof, err := ProfileOnHost(mod, ProfileSetup{Setup: e.Setup}, traffic.MediumMix, 300)
	if err != nil {
		t.Fatal(err)
	}
	var freqs []float64
	for _, g := range mod.Globals {
		if f, ok := prof.GlobalFreq[g.Name]; ok {
			freqs = append(freqs, f)
		}
	}
	sums := map[float64]bool{}
	for r := range freqs {
		s := 0.0
		for i := range freqs {
			s += freqs[(i+r)%len(freqs)]
		}
		sums[s] = true
	}
	if len(freqs) < 3 || len(sums) < 2 {
		t.Fatalf("fixture no longer order-sensitive: frequencies %v", freqs)
	}
	want := 0.0
	for _, f := range freqs {
		want += f
	}
	for i := 0; i < 200; i++ {
		if got := ScaleoutFeatures(&ModulePrediction{}, prof, traffic.MediumMix, 0)[2]; got != want {
			t.Fatalf("call %d: accesses/packet = %v, want the declaration-order sum %v", i, got, want)
		}
	}
}

func TestSuggestPlacementPrefersFastForHotSmall(t *testing.T) {
	e := click.Get("udpcount")
	mod := e.MustModule()
	prof, err := ProfileOnHost(mod, ProfileSetup{Setup: e.Setup}, traffic.MediumMix, 600)
	if err != nil {
		t.Fatal(err)
	}
	params := nicsim.DefaultParams()
	pl, err := SuggestPlacement(mod, prof, params)
	if err != nil {
		t.Fatal(err)
	}
	// Every global is placed.
	for _, g := range mod.Globals {
		if _, ok := pl[g.Name]; !ok {
			t.Errorf("global %q unplaced", g.Name)
		}
	}
	// The hot scalar tallies should leave EMEM; the 2MB+ flow map cannot
	// fit in CLS.
	if pl["udp_pkts"] == isa.EMEM {
		t.Error("hot scalar left in EMEM")
	}
	if pl["src_count"] == isa.CLS {
		t.Error("2MB map placed into 64KB CLS")
	}
	// Capacity respected.
	used := map[isa.Region]int{}
	for _, g := range mod.Globals {
		used[pl[g.Name]] += g.SizeBytes()
	}
	for r, b := range used {
		if b > params.Regions[r].Capacity {
			t.Errorf("%s overfilled: %d", r, b)
		}
	}
}

func TestNaivePlacementAllEMEM(t *testing.T) {
	mod := click.Get("udpcount").MustModule()
	pl := NaivePlacement(mod)
	for g, r := range pl {
		if r != isa.EMEM {
			t.Errorf("%s at %s", g, r)
		}
	}
}

func TestPlacementCandidates(t *testing.T) {
	mod := click.Get("udpcount").MustModule()
	params := nicsim.DefaultParams()
	cands := PlacementCandidates(mod, params)
	if len(cands) < 4 {
		t.Fatalf("only %d candidates", len(cands))
	}
	for _, pl := range cands {
		used := map[isa.Region]int{}
		for _, g := range mod.Globals {
			used[pl[g.Name]] += g.SizeBytes()
		}
		for r, b := range used {
			if b > params.Regions[r].Capacity {
				t.Fatalf("infeasible candidate: %s %d", r, b)
			}
		}
	}
}

func TestSuggestPacksGroupsCoAccessed(t *testing.T) {
	e := click.Get("tcpgen")
	mod := e.MustModule()
	prof, err := ProfileOnHost(mod, ProfileSetup{}, traffic.LargeFlows, 800)
	if err != nil {
		t.Fatal(err)
	}
	packs := SuggestPacks(mod, prof, CoalesceConfig{})
	if len(packs) == 0 {
		t.Fatal("no packs suggested for tcpgen")
	}
	// The generator port pair is written in the same block on every packet;
	// they must land in one pack ("one of the clusters suggested by Clara
	// contains source and destination ports", §5.6).
	inSame := func(a, b string) bool {
		for _, p := range packs {
			hasA, hasB := false, false
			for _, n := range p {
				if n == a {
					hasA = true
				}
				if n == b {
					hasB = true
				}
			}
			if hasA && hasB {
				return true
			}
		}
		return false
	}
	if !inSame("gen_sport", "gen_dport") {
		t.Errorf("sport/dport not packed together: %v", packs)
	}
}

func TestPartitionsBellNumbers(t *testing.T) {
	for _, c := range []struct{ n, bell int }{{0, 1}, {1, 1}, {2, 2}, {3, 5}, {4, 15}, {5, 52}} {
		items := make([]string, c.n)
		for i := range items {
			items[i] = string(rune('a' + i))
		}
		if got := len(Partitions(items)); got != c.bell {
			t.Errorf("Partitions(%d) = %d, want %d", c.n, got, c.bell)
		}
	}
	p := PacksFromPartition([][]string{{"a"}, {"b", "c"}})
	if len(p) != 1 || len(p[0]) != 2 {
		t.Errorf("PacksFromPartition = %v", p)
	}
}

func TestHotScalars(t *testing.T) {
	e := click.Get("aggcounter")
	mod := e.MustModule()
	prof, err := ProfileOnHost(mod, ProfileSetup{}, traffic.MediumMix, 400)
	if err != nil {
		t.Fatal(err)
	}
	hot := HotScalars(mod, prof, 3, 5)
	if len(hot) == 0 {
		t.Fatal("no hot scalars found")
	}
	found := false
	for _, h := range hot {
		if h == "total_pkts" {
			found = true
		}
	}
	if !found {
		t.Errorf("total_pkts missing from hot set %v", hot)
	}
}

func TestScaleoutTrainAndSuggest(t *testing.T) {
	if testing.Short() {
		t.Skip("trains on the simulator")
	}
	p := getPredictor(t)
	cfg := ScaleoutConfig{
		TrainPrograms:   10,
		PacketsPerTrace: 600,
		CoreGrid:        []int{2, 8, 16, 32, 48, 60},
		Workloads:       []traffic.Spec{traffic.LargeFlows},
		Seed:            3,
	}
	sm, err := TrainScaleout(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(sm.Train) != 10 {
		t.Fatalf("train samples = %d", len(sm.Train))
	}
	e := click.Get("aggcounter")
	cores, err := sm.SuggestForNF(e.MustModule(), ProfileSetup{}, traffic.LargeFlows, p, niccc.AccelConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if cores < 1 || cores > 60 {
		t.Errorf("suggested %d cores", cores)
	}
}

func TestColocatorRanksPairs(t *testing.T) {
	if testing.Short() {
		t.Skip("trains on the simulator")
	}
	p := getPredictor(t)
	cfg := ColocConfig{TrainNFs: 6, PairsMax: 15, Packets: 600, Seed: 9}
	co, err := TrainColocator(cfg, p, ObjThroughputTotal)
	if err != nil {
		t.Fatal(err)
	}
	if len(co.Outcomes) != 15 {
		t.Fatalf("outcomes = %d", len(co.Outcomes))
	}
	// Build a small candidate set from real NFs and rank it.
	var cands []*ColocNF
	params := nicsim.DefaultParams()
	for _, name := range []string{"aggcounter", "udpcount", "dpi"} {
		e := click.Get(name)
		nf := &nicsim.NF{Name: name, Mod: e.MustModule(), Setup: e.Setup, LPMTable: e.Routes}
		c, err := PrepareColocNF(nf, traffic.MediumMix, 600, 24, params, p)
		if err != nil {
			t.Fatal(err)
		}
		cands = append(cands, c)
	}
	ranked := co.RankPairs(cands)
	if len(ranked) != 3 {
		t.Fatalf("ranked %d pairs", len(ranked))
	}
	co.Retrain(ObjLatencyTotal)
	ranked2 := co.RankPairs(cands)
	if len(ranked2) != 3 {
		t.Fatal("retrain broke ranking")
	}
}

func TestClaraAnalyzeEndToEnd(t *testing.T) {
	p := getPredictor(t)
	id, err := TrainAlgoIdentifier(synth.AlgoCorpus(16, 100), 48, 5)
	if err != nil {
		t.Fatal(err)
	}
	c := &Clara{Predictor: p, AlgoID: id, Params: nicsim.DefaultParams()}
	e := click.Get("iplookup")
	ins, err := c.Analyze(e.MustModule(), ProfileSetup{Setup: e.Setup}, traffic.MediumMix)
	if err != nil {
		t.Fatal(err)
	}
	if ins.Algorithm != AlgoLPM {
		t.Errorf("iplookup algorithm = %s", AlgoName(ins.Algorithm))
	}
	if len(ins.Placement) == 0 {
		t.Error("no placement suggested")
	}
	rep := ins.Report()
	for _, want := range []string{"LPM", "State placement", "compute instructions"} {
		if !containsStr(rep, want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}
}

func TestReversePortSourcesCompile(t *testing.T) {
	for name, src := range map[string]string{
		"nicmap": ReversePortNICMapSource, "hostmap": HostMapSource,
	} {
		if _, err := lang.Compile(name, src); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func containsStr(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 || indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}
