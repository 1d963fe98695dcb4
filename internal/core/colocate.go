package core

import (
	"math/rand"

	"clara/internal/ml"
	"clara/internal/nicsim"
	"clara/internal/synth"
	"clara/internal/traffic"
)

// This file implements NF colocation analysis (§4.5): pairwise ranking of
// colocation friendliness with a LambdaMART-style gradient-boosted ranker.
// Friendliness ground truth comes from colocated vs exclusive simulator
// runs; features are the paper's: per-NF arithmetic intensity, compute
// instruction counts, and the colocated pair's intensity ratio.

// RankObjective selects the training objective (§5.7 trains all four).
type RankObjective uint8

// Objectives.
const (
	ObjThroughputTotal RankObjective = iota
	ObjThroughputAvg
	ObjLatencyTotal
	ObjLatencyAvg
)

func (o RankObjective) String() string {
	switch o {
	case ObjThroughputTotal:
		return "Th.Tot"
	case ObjThroughputAvg:
		return "Th.Avg"
	case ObjLatencyTotal:
		return "Lat.Tot"
	case ObjLatencyAvg:
		return "Lat.Avg"
	default:
		return "?"
	}
}

// ColocNF is one candidate NF prepared for colocation analysis.
type ColocNF struct {
	Name    string
	Traces  *nicsim.TraceSet
	Solo    nicsim.Result // exclusive run on half the NIC's cores
	Compute float64       // predicted compute instructions (§3)
	Mem     float64       // stateful accesses per packet
}

// AI returns the arithmetic intensity (compute per stateful access).
func (c *ColocNF) AI() float64 { return c.Compute / (c.Mem + 1) }

// PairFeatures builds the §4.5 feature vector for a colocation pair.
func PairFeatures(a, b *ColocNF) []float64 {
	aiA, aiB := a.AI(), b.AI()
	ratio := aiA / (aiB + 1e-9)
	if ratio > 1 {
		ratio = 1 / ratio // order-invariant
	}
	return []float64{
		aiA + aiB,
		aiA * aiB,
		a.Compute + b.Compute,
		a.Mem + b.Mem,
		ratio,
		minF(aiA, aiB),
		maxF(aiA, aiB),
	}
}

func minF(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// PairOutcome is a measured colocation of two NFs.
type PairOutcome struct {
	A, B     int // indices into the candidate set
	Features []float64
	// Friendliness per objective: higher is friendlier.
	Friendliness [4]float64
}

// PrepareColocNF builds traces and the exclusive-use baseline for one NF.
func PrepareColocNF(nf *nicsim.NF, wl traffic.Spec, packets, cores int, params nicsim.Params, pred *Predictor) (*ColocNF, error) {
	built, err := nf.Build(params)
	if err != nil {
		return nil, err
	}
	ts, err := nicsim.GenTraces(built, wl, packets, params)
	built.Machine.Release()
	if err != nil {
		return nil, err
	}
	solo, err := nicsim.Simulate(params, cores, ts)
	if err != nil {
		return nil, err
	}
	mp, err := pred.PredictModule(nf.Mod, nf.Accel)
	if err != nil {
		return nil, err
	}
	var mem float64
	for r, n := range ts.MemAccesses {
		_ = r
		mem += float64(n)
	}
	mem /= float64(ts.Packets())
	return &ColocNF{
		Name: nf.Name, Traces: ts, Solo: solo,
		Compute: mp.TotalCompute + float64(mp.TotalAPI), Mem: mem,
	}, nil
}

// MeasurePair simulates a colocation and computes all four friendliness
// objectives (collective metrics normalized by exclusive-use runs, §5.7).
func MeasurePair(a, b *ColocNF, cores int, params nicsim.Params) (PairOutcome, error) {
	rs, err := nicsim.SimulateColocation(params, []nicsim.Part{
		{TS: a.Traces, Cores: cores}, {TS: b.Traces, Cores: cores},
	})
	if err != nil {
		return PairOutcome{}, err
	}
	coA, coB := rs[0], rs[1]
	out := PairOutcome{Features: PairFeatures(a, b)}
	out.Friendliness[ObjThroughputTotal] =
		(coA.ThroughputMpps + coB.ThroughputMpps) / (a.Solo.ThroughputMpps + b.Solo.ThroughputMpps + 1e-9)
	out.Friendliness[ObjThroughputAvg] =
		(coA.ThroughputMpps/(a.Solo.ThroughputMpps+1e-9) + coB.ThroughputMpps/(b.Solo.ThroughputMpps+1e-9)) / 2
	out.Friendliness[ObjLatencyTotal] =
		(a.Solo.AvgLatencyUs + b.Solo.AvgLatencyUs) / (coA.AvgLatencyUs + coB.AvgLatencyUs + 1e-9)
	out.Friendliness[ObjLatencyAvg] =
		(a.Solo.AvgLatencyUs/(coA.AvgLatencyUs+1e-9) + b.Solo.AvgLatencyUs/(coB.AvgLatencyUs+1e-9)) / 2
	return out, nil
}

// ColocConfig controls ranker training. Every training pair runs colocEach
// cores per NF under the medium-mix workload.
type ColocConfig struct {
	TrainNFs int
	PairsMax int
	Packets  int
	Params   nicsim.Params
	Seed     int64
}

// colocEach is the core count each NF of a training pair gets.
const colocEach = 24

func (c ColocConfig) norm() ColocConfig {
	if c.TrainNFs == 0 {
		c.TrainNFs = 20
	}
	if c.PairsMax == 0 {
		c.PairsMax = 110
	}
	if c.Packets == 0 {
		c.Packets = 1200
	}
	if c.Params.NumCores == 0 {
		c.Params = nicsim.DefaultParams()
	}
	return c
}

// Colocator is the trained colocation ranker.
type Colocator struct {
	ranker *ml.Ranker
	// Outcomes retains the training measurements for evaluation.
	Outcomes []PairOutcome
}

// TrainColocator synthesizes candidate NFs, measures random colocations,
// and fits a pairwise ranker on the chosen objective.
func TrainColocator(cfg ColocConfig, pred *Predictor, obj RankObjective) (*Colocator, error) {
	cfg = cfg.norm()
	rng := rand.New(rand.NewSource(cfg.Seed + 71))

	var cands []*ColocNF
	for i := 0; i < cfg.TrainNFs; i++ {
		mod, _, err := synth.GenerateModule(synth.Config{
			Profile:   synth.UniformProfile(),
			Seed:      cfg.Seed + 1700 + int64(i)*17,
			StateBias: 0.25 + 4*float64(i%6)/5,
		})
		if err != nil {
			return nil, err
		}
		nf := &nicsim.NF{Name: mod.Name, Mod: mod}
		c, err := PrepareColocNF(nf, traffic.MediumMix, cfg.Packets, colocEach, cfg.Params, pred)
		if err != nil {
			return nil, err
		}
		cands = append(cands, c)
	}

	outcomes, err := samplePairs(cands, cfg, rng)
	if err != nil {
		return nil, err
	}
	return &Colocator{ranker: fitRanker(outcomes, obj), Outcomes: outcomes}, nil
}

func samplePairs(cands []*ColocNF, cfg ColocConfig, rng *rand.Rand) ([]PairOutcome, error) {
	n := len(cands)
	var all [][2]int
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			all = append(all, [2]int{i, j})
		}
	}
	rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	if len(all) > cfg.PairsMax {
		all = all[:cfg.PairsMax]
	}
	var outcomes []PairOutcome
	for _, p := range all {
		o, err := MeasurePair(cands[p[0]], cands[p[1]], colocEach, cfg.Params)
		if err != nil {
			return nil, err
		}
		o.A, o.B = p[0], p[1]
		outcomes = append(outcomes, o)
	}
	return outcomes, nil
}

func fitRanker(outcomes []PairOutcome, obj RankObjective) *ml.Ranker {
	X := make([][]float64, len(outcomes))
	var prefs []ml.PrefPair
	for i, o := range outcomes {
		X[i] = o.Features
	}
	for i := range outcomes {
		for j := range outcomes {
			if i == j {
				continue
			}
			if outcomes[i].Friendliness[obj] > outcomes[j].Friendliness[obj]+0.01 {
				prefs = append(prefs, ml.PrefPair{Better: i, Worse: j})
			}
		}
	}
	return ml.FitRanker(X, prefs, ml.RankConfig{Trees: 140, MaxDepth: 4})
}

// Retrain refits the ranker on a different objective using the cached
// measurements.
func (co *Colocator) Retrain(obj RankObjective) {
	co.ranker = fitRanker(co.Outcomes, obj)
}

// Score ranks one candidate pair (higher = friendlier).
func (co *Colocator) Score(a, b *ColocNF) float64 {
	return co.ranker.Score(PairFeatures(a, b))
}

// RankPairs scores all pairs of the candidate set and returns pair indices
// ordered best-first.
func (co *Colocator) RankPairs(cands []*ColocNF) [][2]int {
	type sp struct {
		p [2]int
		s float64
	}
	var all []sp
	for i := 0; i < len(cands); i++ {
		for j := i + 1; j < len(cands); j++ {
			all = append(all, sp{[2]int{i, j}, co.Score(cands[i], cands[j])})
		}
	}
	for i := 1; i < len(all); i++ {
		for j := i; j > 0 && (all[j].s > all[j-1].s ||
			(all[j].s == all[j-1].s && less(all[j].p, all[j-1].p))); j-- {
			all[j], all[j-1] = all[j-1], all[j]
		}
	}
	out := make([][2]int, len(all))
	for i, s := range all {
		out[i] = s.p
	}
	return out
}

func less(a, b [2]int) bool {
	if a[0] != b[0] {
		return a[0] < b[0]
	}
	return a[1] < b[1]
}
