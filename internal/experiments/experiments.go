// Package experiments regenerates every table and figure of the paper's
// evaluation (§5) on the simulated SmartNIC. Each experiment function
// returns a Table whose rows mirror what the paper plots or tabulates; the
// cmd/clarabench binary runs them all and EXPERIMENTS.md records
// paper-vs-measured.
package experiments

import (
	"fmt"
	"io"
	"strings"

	"clara/internal/click"
	"clara/internal/core"
	"clara/internal/nicsim"
	"clara/internal/synth"
	"clara/internal/traffic"
)

// Config controls experiment scale.
type Config struct {
	Params nicsim.Params
	Seed   int64
	// Quick shrinks training sets and packet counts so the full suite runs
	// in seconds (tests); the bench uses full scale.
	Quick bool
}

// DefaultConfig returns the full-scale configuration.
func DefaultConfig() Config {
	return Config{Params: nicsim.DefaultParams(), Seed: 42}
}

// scale is every size the suite sets; fullScale and quickScale are its only
// values, picked by Config.Quick.
type scale struct {
	predictor      core.PredictorConfig // §3's LSTM; figure8's baselines train on as many programs
	ablation       core.PredictorConfig // the smaller LSTM both ablations train
	baselineEpochs int                  // figure8's CNN and DNN
	scaleout       core.ScaleoutConfig
	coloc          core.ColocConfig

	// Synthesized corpora (per class for the algorithm-ID sets): the §4.1
	// classifier's training set, figure9's baseline training and test sets,
	// figure10a's PCA set, table1's programs and calibration probes.
	algoTrain, algoBaselineTrain, algoTest, pcaCorpus int
	synthPrograms, synthProbe                         int

	lpmRules               []int // figure10c's rule-table sizes
	colocGroups, colocEval int   // figure14a's random groups and candidate NFs
	// Caps on the §5.8 expert sweeps (0 = every candidate).
	expertPlacements, expertPartitions int

	// Packets per host profile (and per figure14a candidate), per simulated
	// run (figure1, figure10c, coalescing sweeps), per accelerator or
	// placement run, per figure11 core sweep, and per figure14bc NF.
	profilePkts, tracePkts, simPkts, sweepPkts, colocPkts int
}

var fullScale = scale{
	predictor:      core.PredictorConfig{TrainPrograms: 320},
	ablation:       core.PredictorConfig{TrainPrograms: 120, Epochs: 14},
	baselineEpochs: 30,
	algoTrain:      60, algoBaselineTrain: 40, algoTest: 40, pcaCorpus: 30,
	synthPrograms: 160, synthProbe: 60,
	lpmRules:    []int{16, 32, 64, 128, 256, 512, 1024},
	colocGroups: 30, colocEval: 10,
	profilePkts: 1200, tracePkts: 2500, simPkts: 3000, sweepPkts: 5000, colocPkts: 2000,
}

var quickScale = scale{
	predictor:      core.PredictorConfig{TrainPrograms: 60, Epochs: 8, Hidden: 18},
	ablation:       core.PredictorConfig{TrainPrograms: 40, Epochs: 6},
	baselineEpochs: 6,
	scaleout:       core.ScaleoutConfig{TrainPrograms: 10, PacketsPerTrace: 500, CoreGrid: []int{2, 8, 16, 32, 48, 60}},
	coloc:          core.ColocConfig{TrainNFs: 8, PairsMax: 20, Packets: 500},
	algoTrain:      16, algoBaselineTrain: 14, algoTest: 12, pcaCorpus: 10,
	synthPrograms: 30, synthProbe: 15,
	lpmRules:    []int{16, 128, 1024},
	colocGroups: 8, colocEval: 6,
	expertPlacements: 8, expertPartitions: 10,
	profilePkts: 300, tracePkts: 500, simPkts: 600, sweepPkts: 1000, colocPkts: 400,
}

// Table is one regenerated table/figure.
type Table struct {
	ID     string // e.g. "figure8"
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Notef appends a formatted note.
func (t *Table) Notef(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Fprint renders the table.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	printRow := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			wdt := 0
			if i < len(widths) {
				wdt = widths[i]
			}
			parts[i] = fmt.Sprintf("%-*s", wdt, c)
		}
		fmt.Fprintln(w, "  "+strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	printRow(t.Header)
	for _, r := range t.Rows {
		printRow(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// Context is what experiments share: the configuration, its scale, and a
// cache of stages — trained models, host profiles, core sweeps — each
// computed once, on first use, and read by every experiment needing it.
// A Context is not safe for concurrent use.
type Context struct {
	Cfg   Config
	scale scale
	// models holds the three trained models Fresh keeps (Predictor, AlgoID,
	// Scaleout); stages holds every other shared intermediate.
	models, stages map[string]*stageEntry
}

type stageEntry struct {
	v    any
	uses int // reads, the computing one included
}

// NewContext returns a context for cfg.
func NewContext(cfg Config) *Context {
	if cfg.Params.NumCores == 0 {
		cfg.Params = nicsim.DefaultParams()
	}
	sc := fullScale
	if cfg.Quick {
		sc = quickScale
	}
	return &Context{Cfg: cfg, scale: sc, models: map[string]*stageEntry{}, stages: map[string]*stageEntry{}}
}

// Fresh returns a Context that shares c's trained models but no other
// stage, so an experiment run on it does all of its own work once those
// models exist (the root BenchmarkFigure* time each iteration this way).
func (c *Context) Fresh() *Context {
	return &Context{Cfg: c.Cfg, scale: c.scale, models: c.models, stages: map[string]*stageEntry{}}
}

// stage returns the value cached under key, computing it on first use.
// Errors are not cached.
func stage[T any](cache map[string]*stageEntry, key string, compute func() (T, error)) (T, error) {
	e, ok := cache[key]
	if !ok {
		v, err := compute()
		if err != nil {
			return v, err
		}
		e = &stageEntry{v: v}
		cache[key] = e
	}
	e.uses++
	return e.v.(T), nil
}

func f2(v float64) string  { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string  { return fmt.Sprintf("%.3f", v) }
func pct(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }

// corpusProfile is the synthesizer profile measured from the Table 2
// elements, which every predictor here trains on.
func corpusProfile() (synth.Profile, error) {
	mods, err := click.Modules(click.Table2Order)
	if err != nil {
		return synth.Profile{}, err
	}
	return core.CorpusProfile(mods), nil
}

// Predictor trains (once) the §3 instruction predictor on a corpus profile
// measured from the element library.
func (c *Context) Predictor() (*core.Predictor, error) {
	return stage(c.models, "predictor", func() (*core.Predictor, error) {
		prof, err := corpusProfile()
		if err != nil {
			return nil, err
		}
		cfg := c.scale.predictor
		cfg.CompactVocab, cfg.Seed = true, c.Cfg.Seed
		return core.TrainPredictor(cfg, prof)
	})
}

// AlgoID trains (once) the §4.1 classifier.
func (c *Context) AlgoID() (*core.AlgoIdentifier, error) {
	return stage(c.models, "algoid", func() (*core.AlgoIdentifier, error) {
		return core.TrainAlgoIdentifier(algoTrainCorpus(c.scale.algoTrain, c.Cfg.Seed), 48, c.Cfg.Seed)
	})
}

// Scaleout trains (once) the §4.2 cost model.
func (c *Context) Scaleout() (*core.ScaleoutModel, error) {
	return stage(c.models, "scaleout", func() (*core.ScaleoutModel, error) {
		pred, err := c.Predictor()
		if err != nil {
			return nil, err
		}
		cfg := c.scale.scaleout
		cfg.Params, cfg.Seed = c.Cfg.Params, c.Cfg.Seed
		return core.TrainScaleout(cfg, pred)
	})
}

// elementNF builds a nicsim.NF for a library element with porting options
// applied by mut.
func elementNF(name string, mut func(*nicsim.NF)) *nicsim.NF {
	e := click.Get(name)
	if e == nil {
		panic("experiments: unknown element " + name)
	}
	nf := &nicsim.NF{
		Name:     name,
		Mod:      e.MustModule(),
		Setup:    e.Setup,
		LPMTable: e.Routes,
	}
	if mut != nil {
		mut(nf)
	}
	return nf
}

// traces builds one NF configuration and generates its workload traces.
func traces(params nicsim.Params, nf *nicsim.NF, wl traffic.Spec, packets int) (*nicsim.TraceSet, error) {
	b, err := nf.Build(params)
	if err != nil {
		return nil, err
	}
	return nicsim.GenTraces(b, wl, packets, params)
}

// runNF simulates one NF configuration on a fixed core count.
func runNF(params nicsim.Params, nf *nicsim.NF, wl traffic.Spec, packets, cores int) (nicsim.Result, error) {
	ts, err := traces(params, nf, wl, packets)
	if err != nil {
		return nicsim.Result{}, err
	}
	return nicsim.Simulate(params, cores, ts)
}

// sweepNF simulates one NF configuration across the default core sweep.
func sweepNF(params nicsim.Params, nf *nicsim.NF, wl traffic.Spec, packets int) ([]nicsim.Result, error) {
	ts, err := traces(params, nf, wl, packets)
	if err != nil {
		return nil, err
	}
	return nicsim.SweepCores(params, ts, nicsim.DefaultCoreSweep)
}

// profileSetup extracts the element's host-profiling setup.
func profileSetup(name string) core.ProfileSetup {
	e := click.Get(name)
	return core.ProfileSetup{Setup: e.Setup, LPMTable: e.Routes}
}

// algoTrainCorpus builds the training corpus for algorithm identification:
// n synthesized variants per class, plus the library's non-CRC/LPM
// elements as extra real negatives.
func algoTrainCorpus(n int, seed int64) []synth.LabeledProgram {
	corpus := synth.AlgoCorpus(n, seed)
	for _, name := range []string{"tcpack", "udpipencap", "forcetcp", "aggcounter", "timefilter"} {
		corpus = append(corpus, synth.LabeledProgram{
			Name: "click_" + name, Src: click.Get(name).Src, Label: synth.LabelNone,
		})
	}
	return corpus
}
