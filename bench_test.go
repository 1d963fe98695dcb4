package clara

import (
	"io"
	"sync"
	"testing"

	"clara/internal/experiments"
	"clara/internal/interp"
	"clara/internal/nicsim"
	"clara/internal/traffic"
)

// The benchmark context is shared: training the predictor and the cost
// models happens once, at full evaluation scale, on first use. Every other
// stage is redone per iteration (see benchExperiment).
var (
	benchCtxOnce sync.Once
	benchCtx     *experiments.Context
)

func fullCtx() *experiments.Context {
	benchCtxOnce.Do(func() {
		benchCtx = experiments.NewContext(experiments.DefaultConfig())
	})
	return benchCtx
}

// benchExperiment regenerates one table/figure per iteration and reports
// failure through b. Each iteration runs on a Fresh context — the trained
// models, but none of the stages experiments share — so it times the
// experiment's own work, not a read of what an earlier iteration cached.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e := experiments.Get(id)
	if e == nil {
		b.Fatalf("unknown experiment %q", id)
	}
	ctx := fullCtx()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t, err := e.Run(ctx.Fresh())
		if err != nil {
			b.Fatal(err)
		}
		t.Fprint(io.Discard)
	}
}

// One benchmark per table and figure in the paper's evaluation (§5).

func BenchmarkFigure1(b *testing.B)             { benchExperiment(b, "figure1") }
func BenchmarkTable1(b *testing.B)              { benchExperiment(b, "table1") }
func BenchmarkTable2(b *testing.B)              { benchExperiment(b, "table2") }
func BenchmarkFigure8(b *testing.B)             { benchExperiment(b, "figure8") }
func BenchmarkFigure8Ablation(b *testing.B)     { benchExperiment(b, "figure8-ablation") }
func BenchmarkReversePortAblation(b *testing.B) { benchExperiment(b, "reverse-port-ablation") }
func BenchmarkFigure9(b *testing.B)             { benchExperiment(b, "figure9") }
func BenchmarkFigure10a(b *testing.B)           { benchExperiment(b, "figure10a") }
func BenchmarkFigure10b(b *testing.B)           { benchExperiment(b, "figure10b") }
func BenchmarkFigure10c(b *testing.B)           { benchExperiment(b, "figure10c") }
func BenchmarkFigure11a(b *testing.B)           { benchExperiment(b, "figure11a") }
func BenchmarkFigure11b(b *testing.B)           { benchExperiment(b, "figure11b") }
func BenchmarkFigure11cd(b *testing.B)          { benchExperiment(b, "figure11cd") }
func BenchmarkFigure11ef(b *testing.B)          { benchExperiment(b, "figure11ef") }
func BenchmarkFigure12(b *testing.B)            { benchExperiment(b, "figure12") }
func BenchmarkFigure13(b *testing.B)            { benchExperiment(b, "figure13") }
func BenchmarkFigure14a(b *testing.B)           { benchExperiment(b, "figure14a") }
func BenchmarkFigure14bc(b *testing.B)          { benchExperiment(b, "figure14bc") }
func BenchmarkFigure15(b *testing.B)            { benchExperiment(b, "figure15") }
func BenchmarkFigure16(b *testing.B)            { benchExperiment(b, "figure16") }

// Substrate microbenchmarks: the per-packet costs underlying everything
// above.

func BenchmarkInterpPacket(b *testing.B) {
	e := GetElement("mazunat")
	m, err := interp.New(e.MustModule(), interp.Config{})
	if err != nil {
		b.Fatal(err)
	}
	gen, err := traffic.NewGenerator(traffic.MediumMix)
	if err != nil {
		b.Fatal(err)
	}
	pkts := gen.Trace(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pkts[i%len(pkts)]
		if err := m.RunPacket(&p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTraceGeneration(b *testing.B) {
	params := nicsim.DefaultParams()
	e := GetElement("mazunat")
	nf := &NF{Name: "mazunat", Mod: e.MustModule(), Setup: e.Setup}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		built, err := nf.Build(params)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := nicsim.GenTraces(built, traffic.MediumMix, 1000, params); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimulateReplay(b *testing.B) {
	params := nicsim.DefaultParams()
	e := GetElement("mazunat")
	nf := &NF{Name: "mazunat", Mod: e.MustModule(), Setup: e.Setup}
	built, err := nf.Build(params)
	if err != nil {
		b.Fatal(err)
	}
	ts, err := nicsim.GenTraces(built, traffic.MediumMix, 3000, params)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := nicsim.Simulate(params, 24, ts); err != nil {
			b.Fatal(err)
		}
	}
}

// The fleet benchmark trains its own quick tool: the experiments context
// above has no algorithm-ID or scale-out models, and the fleet analyzes
// with all three.
var (
	fleetToolOnce sync.Once
	fleetTool     *Tool
	fleetToolErr  error
)

func fleetBenchTool(b *testing.B) *Tool {
	b.Helper()
	fleetToolOnce.Do(func() {
		fleetTool, fleetToolErr = Train(TrainConfig{Quick: true, Seed: 42})
	})
	if fleetToolErr != nil {
		b.Fatal(fleetToolErr)
	}
	return fleetTool
}

// BenchmarkFleetAnalyze compares analyzing the whole click library under
// the three standard workloads (the analyze-fleet CLI batch, 51 jobs):
// sequentially via Tool.Analyze, on an 8-worker fleet with a cold cache
// per batch, and on a long-lived fleet whose stores persist across
// batches. LibraryJobs carry the resolver's setup identities, so from its
// third batch on the warm case measures result hits — 51 lookups — and
// no analysis at all. One op = one full batch.
func BenchmarkFleetAnalyze(b *testing.B) {
	tool := fleetBenchTool(b)
	jobs, err := LibraryJobs()
	if err != nil {
		b.Fatal(err)
	}
	jobsPerOp := float64(len(jobs))

	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, j := range jobs {
				if _, err := tool.Analyze(j.Mod, j.PS, j.WL); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(jobsPerOp*float64(b.N)/b.Elapsed().Seconds(), "jobs/s")
	})

	run := func(b *testing.B, fl *Fleet) {
		rs, err := fl.Run(jobs)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rs {
			if r.Err != nil {
				b.Fatal(r.Err)
			}
		}
	}

	b.Run("fleet8-cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			fl, err := NewFleet(tool, FleetConfig{Workers: 8})
			if err != nil {
				b.Fatal(err)
			}
			run(b, fl)
			if s := fl.Stats(); s.CacheHits == 0 {
				b.Fatal("no cache hits on repeated modules")
			}
		}
		b.ReportMetric(jobsPerOp*float64(b.N)/b.Elapsed().Seconds(), "jobs/s")
	})

	b.Run("fleet8-warm", func(b *testing.B) {
		fl, err := NewFleet(tool, FleetConfig{Workers: 8})
		if err != nil {
			b.Fatal(err)
		}
		run(b, fl) // prime the cache outside the timed region
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			run(b, fl)
		}
		b.ReportMetric(jobsPerOp*float64(b.N)/b.Elapsed().Seconds(), "jobs/s")
		b.ReportMetric(100*fl.Stats().CacheHitRate, "cache-hit-%")
	})
}

func BenchmarkPredictModule(b *testing.B) {
	ctx := fullCtx()
	pred, err := ctx.Predictor()
	if err != nil {
		b.Fatal(err)
	}
	mod := GetElement("mazunat").MustModule()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pred.PredictModule(mod, AccelConfig{}); err != nil {
			b.Fatal(err)
		}
	}
}
