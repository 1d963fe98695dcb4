package core

import (
	"fmt"
	"sort"
	"testing"

	"clara/internal/lang"
	"clara/internal/nicsim"
	"clara/internal/synth"
	"clara/internal/traffic"
)

// TestDebugColoc holds the colocation ranker's pairwise concordance (the
// share of differently-friendly pairs it orders correctly) to floors: on
// its own training outcomes (measured 0.99) and on fresh synthesized NFs
// with every pair measured (0.74) — the transfer figure14a's ranking
// accuracy rests on.
func TestDebugColoc(t *testing.T) {
	p := getPredictor(t)
	cfg := ColocConfig{Packets: 1200, Seed: 42}
	co, err := TrainColocator(cfg, p, ObjThroughputTotal)
	if err != nil {
		t.Fatal(err)
	}
	var fr []float64
	good, total := 0, 0
	scores := make([]float64, len(co.Outcomes))
	for i, o := range co.Outcomes {
		fr = append(fr, o.Friendliness[ObjThroughputTotal])
		scores[i] = co.ranker.Score(o.Features)
	}
	for i := range co.Outcomes {
		for j := i + 1; j < len(co.Outcomes); j++ {
			fi, fj := co.Outcomes[i].Friendliness[0], co.Outcomes[j].Friendliness[0]
			if fi == fj {
				continue
			}
			total++
			if (scores[i] > scores[j]) == (fi > fj) {
				good++
			}
		}
	}
	sort.Float64s(fr)
	t.Logf("friendliness: min=%.3f med=%.3f max=%.3f", fr[0], fr[len(fr)/2], fr[len(fr)-1])
	if c := float64(good) / float64(total); c < 0.95 {
		t.Errorf("training concordance %d/%d = %.2f, want >= 0.95", good, total, c)
	}

	// Eval transfer: fresh candidates, all pairs measured.
	params := nicsim.DefaultParams()
	var cands []*ColocNF
	for i := 0; i < 8; i++ {
		mod, _, err := synth.GenerateModule(synth.Config{
			Profile:   synth.UniformProfile(),
			Seed:      42 + 99000 + int64(i)*23,
			StateBias: 0.3 + 3.5*float64(i%5)/4,
		}, lang.Compile)
		if err != nil {
			t.Fatal(err)
		}
		c, err := PrepareColocNF(&nicsim.NF{Name: fmt.Sprintf("e%d", i), Mod: mod},
			traffic.MediumMix, 1200, 24, params, p)
		if err != nil {
			t.Fatal(err)
		}
		cands = append(cands, c)
	}
	type pe struct{ f, s float64 }
	var pes []pe
	for i := 0; i < len(cands); i++ {
		for j := i + 1; j < len(cands); j++ {
			o, err := MeasurePair(cands[i], cands[j], 24, params)
			if err != nil {
				t.Fatal(err)
			}
			pes = append(pes, pe{o.Friendliness[0], co.Score(cands[i], cands[j])})
		}
	}
	eg, et := 0, 0
	for i := range pes {
		for j := i + 1; j < len(pes); j++ {
			if pes[i].f == pes[j].f {
				continue
			}
			et++
			if (pes[i].s > pes[j].s) == (pes[i].f > pes[j].f) {
				eg++
			}
		}
	}
	if c := float64(eg) / float64(et); c < 0.65 {
		t.Errorf("eval concordance %d/%d = %.2f, want >= 0.65", eg, et, c)
	}
}
