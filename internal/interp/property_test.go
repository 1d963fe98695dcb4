package interp

import (
	"testing"

	"clara/internal/lang"
	"clara/internal/synth"
	"clara/internal/traffic"
)

// TestInterpreterInvariantsOnSynthCorpus executes random generated NFs and
// checks interpreter invariants: bounded loops terminate within fuel,
// every packet receives a disposition, and execution is deterministic
// across identical machines.
func TestInterpreterInvariantsOnSynthCorpus(t *testing.T) {
	for seed := int64(600); seed < 625; seed++ {
		mod, src, err := synth.GenerateModule(synth.Config{
			Profile: synth.UniformProfile(), Seed: seed, StateBias: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		m1, err := New(mod, Config{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		m2, err := New(mod, Config{})
		if err != nil {
			t.Fatal(err)
		}
		gen1, _ := traffic.NewGenerator(traffic.MediumMix)
		gen2, _ := traffic.NewGenerator(traffic.MediumMix)
		for i := 0; i < 80; i++ {
			p1 := gen1.Next()
			p2 := gen2.Next()
			if err := m1.RunPacket(&p1); err != nil {
				t.Fatalf("seed %d pkt %d: %v\n%s", seed, i, err, src)
			}
			if err := m2.RunPacket(&p2); err != nil {
				t.Fatal(err)
			}
			if p1.OutPort == -2 {
				t.Fatalf("seed %d: packet %d left undisposed", seed, i)
			}
			if p1.OutPort != p2.OutPort || p1.SrcIP != p2.SrcIP || p1.DstPort != p2.DstPort {
				t.Fatalf("seed %d: nondeterministic execution at packet %d", seed, i)
			}
		}
	}
}

// TestStepsAccounting: the interpreter's step counter grows monotonically
// and roughly linearly with packets processed.
func TestStepsAccounting(t *testing.T) {
	mod, err := lang.Compile("steps", `
global u32 n;
void handle() { n += 1; pkt_send(0); }
`)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(mod, Config{})
	if err != nil {
		t.Fatal(err)
	}
	gen, _ := traffic.NewGenerator(traffic.MediumMix)
	p := gen.Next()
	if err := m.RunPacket(&p); err != nil {
		t.Fatal(err)
	}
	one := m.Steps
	if one == 0 {
		t.Fatal("no steps counted")
	}
	for i := 0; i < 9; i++ {
		q := gen.Next()
		if err := m.RunPacket(&q); err != nil {
			t.Fatal(err)
		}
	}
	if m.Steps != one*10 {
		t.Errorf("steps %d, want %d (straight-line handler)", m.Steps, one*10)
	}
}
