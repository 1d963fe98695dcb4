package core

import (
	"context"
	"testing"

	"clara/internal/nicsim"
)

// quickKneeConfig is the knee half of the quick Tool's training
// (clara.TrainContext with Quick: 8 programs × 2 workloads, 400 packets,
// a 6-point core grid).
func quickKneeConfig() ScaleoutConfig {
	return ScaleoutConfig{TrainPrograms: 8, PacketsPerTrace: 400, CoreGrid: []int{2, 8, 16, 32, 48, 60}}.norm()
}

// BenchmarkSweepCores replays the quick training's 16 knee traces over its
// core grid on one goroutine: the discrete-event simulator alone.
func BenchmarkSweepCores(b *testing.B) {
	cfg := quickKneeConfig()
	mods, err := kneePrograms(context.Background(), cfg)
	if err != nil {
		b.Fatal(err)
	}
	var traces []*nicsim.TraceSet
	for _, mod := range mods {
		for _, wl := range cfg.Workloads {
			built, err := (&nicsim.NF{Name: mod.Name, Mod: mod}).Build(cfg.Params)
			if err != nil {
				b.Fatal(err)
			}
			ts, err := nicsim.GenTraces(built, wl, cfg.PacketsPerTrace, cfg.Params)
			if err != nil {
				b.Fatal(err)
			}
			traces = append(traces, ts)
		}
	}
	b.ResetTimer()
	for range b.N {
		for _, ts := range traces {
			if _, err := nicsim.SweepCores(cfg.Params, ts, cfg.CoreGrid); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkMeasureKnees is the quick training's whole knee half: program
// synthesis, host profiling, trace generation and the sweeps, on up to
// GOMAXPROCS goroutines. Run it with -benchmem: its bytes per op are what
// the trace-buffer free list saves.
func BenchmarkMeasureKnees(b *testing.B) {
	cfg := quickKneeConfig()
	b.ReportAllocs()
	for range b.N {
		if _, err := MeasureKnees(context.Background(), cfg); err != nil {
			b.Fatal(err)
		}
	}
}
