package nicsim

import (
	"testing"

	"clara/internal/synth"
	"clara/internal/traffic"
)

// TestSimulationInvariantsOnSynthCorpus replays random NFs and checks
// physical invariants of the simulator:
//
//  1. throughput never exceeds the ingress ceiling;
//  2. average latency never drops below the fixed wire overhead;
//  3. adding cores never reduces throughput by more than measurement noise;
//  4. results are finite and positive.
func TestSimulationInvariantsOnSynthCorpus(t *testing.T) {
	params := DefaultParams()
	for seed := int64(300); seed < 312; seed++ {
		mod, src, err := synth.GenerateModule(synth.Config{
			Profile: synth.UniformProfile(), Seed: seed, StateBias: 1.5,
		})
		if err != nil {
			t.Fatal(err)
		}
		nf := &NF{Name: mod.Name, Mod: mod}
		b, err := nf.Build(params)
		if err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, src)
		}
		ts, err := GenTraces(b, traffic.MediumMix, 1200, params)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		r1, err := Simulate(params, 1, ts)
		if err != nil {
			t.Fatal(err)
		}
		r8, err := Simulate(params, 8, ts)
		if err != nil {
			t.Fatal(err)
		}
		r60, err := Simulate(params, 60, ts)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range []Result{r1, r8, r60} {
			if r.ThroughputMpps <= 0 || r.AvgLatencyUs <= 0 {
				t.Fatalf("seed %d: degenerate result %+v", seed, r)
			}
			if r.ThroughputMpps > params.IngressMpps*1.02 {
				t.Fatalf("seed %d: throughput %f exceeds ingress ceiling", seed, r.ThroughputMpps)
			}
			floor := float64(params.WireOverheadCycles) / (params.CoreGHz * 1e3)
			if r.AvgLatencyUs < floor {
				t.Fatalf("seed %d: latency %f below the wire floor %f", seed, r.AvgLatencyUs, floor)
			}
			if r.MaxLatencyUs < r.AvgLatencyUs {
				t.Fatalf("seed %d: max < avg latency", seed)
			}
		}
		if r8.ThroughputMpps < r1.ThroughputMpps*0.95 {
			t.Fatalf("seed %d: throughput fell with more cores: %f -> %f",
				seed, r1.ThroughputMpps, r8.ThroughputMpps)
		}
		if r60.ThroughputMpps < r8.ThroughputMpps*0.9 {
			t.Fatalf("seed %d: throughput collapsed at 60 cores: %f -> %f",
				seed, r8.ThroughputMpps, r60.ThroughputMpps)
		}
	}
}

// TestColocationConservation: colocating two NFs can only hurt each of
// them relative to exclusive use of the same cores, and the shares still
// respect the ingress ceiling.
func TestColocationConservation(t *testing.T) {
	params := DefaultParams()
	var sets []*TraceSet
	for seed := int64(400); seed < 402; seed++ {
		mod, _, err := synth.GenerateModule(synth.Config{
			Profile: synth.UniformProfile(), Seed: seed, StateBias: 2.5,
		})
		if err != nil {
			t.Fatal(err)
		}
		b, err := (&NF{Name: mod.Name, Mod: mod}).Build(params)
		if err != nil {
			t.Fatal(err)
		}
		ts, err := GenTraces(b, traffic.MediumMix, 1500, params)
		if err != nil {
			t.Fatal(err)
		}
		sets = append(sets, ts)
	}
	soloA, err := Simulate(params, 24, sets[0])
	if err != nil {
		t.Fatal(err)
	}
	soloB, err := Simulate(params, 24, sets[1])
	if err != nil {
		t.Fatal(err)
	}
	co, err := SimulateColocation(params, []Part{{sets[0], 24}, {sets[1], 24}})
	if err != nil {
		t.Fatal(err)
	}
	for i, solo := range []Result{soloA, soloB} {
		bound := solo.ThroughputMpps
		if co[i].ThroughputMpps > bound*1.05 {
			t.Errorf("part %d: colocated %f exceeds solo bound %f", i, co[i].ThroughputMpps, bound)
		}
		if co[i].AvgLatencyUs < solo.AvgLatencyUs*0.9 {
			t.Errorf("part %d: colocated latency %f below solo %f", i, co[i].AvgLatencyUs, solo.AvgLatencyUs)
		}
	}
}

// TestTraceReplayIndependentOfSweepOrder: sweeping core counts must not
// mutate the trace (replays are pure).
func TestTraceReplayIndependentOfSweepOrder(t *testing.T) {
	params := DefaultParams()
	mod, _, err := synth.GenerateModule(synth.Config{
		Profile: synth.UniformProfile(), Seed: 555, StateBias: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := (&NF{Name: mod.Name, Mod: mod}).Build(params)
	if err != nil {
		t.Fatal(err)
	}
	ts, err := GenTraces(b, traffic.MediumMix, 1000, params)
	if err != nil {
		t.Fatal(err)
	}
	first, err := Simulate(params, 16, ts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SweepCores(params, ts, []int{1, 60, 8, 32}); err != nil {
		t.Fatal(err)
	}
	again, err := Simulate(params, 16, ts)
	if err != nil {
		t.Fatal(err)
	}
	if first != again {
		t.Errorf("replay mutated the trace: %+v vs %+v", first, again)
	}
}
