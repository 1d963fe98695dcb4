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
// across identical machines in both map modes.
func TestInterpreterInvariantsOnSynthCorpus(t *testing.T) {
	for seed := int64(600); seed < 625; seed++ {
		mod, src, err := synth.GenerateModule(synth.Config{
			Profile: synth.UniformProfile(), Seed: seed, StateBias: 2,
		}, lang.Compile)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []MapMode{HostMap, NICMap} {
			m1, err := New(mod, Config{Mode: mode})
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			m2, err := New(mod, Config{Mode: mode})
			if err != nil {
				t.Fatal(err)
			}
			gen1, _ := traffic.NewGenerator(traffic.MediumMix)
			gen2, _ := traffic.NewGenerator(traffic.MediumMix)
			for i := 0; i < 80; i++ {
				p1 := gen1.Next()
				p2 := gen2.Next()
				if err := m1.RunPacket(&p1); err != nil {
					t.Fatalf("seed %d mode %d pkt %d: %v\n%s", seed, mode, i, err, src)
				}
				if err := m2.RunPacket(&p2); err != nil {
					t.Fatal(err)
				}
				if p1.OutPort == -2 {
					t.Fatalf("seed %d: packet %d left undisposed", seed, i)
				}
				if p1.OutPort != p2.OutPort || p1.SrcIP != p2.SrcIP || p1.DstPort != p2.DstPort {
					t.Fatalf("seed %d mode %d: nondeterministic execution at packet %d", seed, mode, i)
				}
			}
		}
	}
}

// TestHostAndNICModesAgreeOnStatelessNFs: for programs without maps, host
// and NIC semantics are identical, so dispositions must match exactly.
func TestHostAndNICModesAgreeOnStatelessNFs(t *testing.T) {
	src := `
global u32 seen[1024];
void handle() {
	u32 b = pkt_ip_src() & 1023;
	seen[b] += 1;
	if ((pkt_tcp_flags() & 0x04) != 0) { pkt_drop(); return; }
	pkt_set_ip_ttl(pkt_ip_ttl() - 1);
	pkt_send(u32(pkt_ip_dst() & 3));
}
`
	mod, err := lang.Compile("agnostic", src)
	if err != nil {
		t.Fatal(err)
	}
	host, err := New(mod, Config{Mode: HostMap})
	if err != nil {
		t.Fatal(err)
	}
	nic, err := New(mod, Config{Mode: NICMap})
	if err != nil {
		t.Fatal(err)
	}
	genH, _ := traffic.NewGenerator(traffic.SmallFlows)
	genN, _ := traffic.NewGenerator(traffic.SmallFlows)
	for i := 0; i < 400; i++ {
		ph := genH.Next()
		pn := genN.Next()
		if err := host.RunPacket(&ph); err != nil {
			t.Fatal(err)
		}
		if err := nic.RunPacket(&pn); err != nil {
			t.Fatal(err)
		}
		if ph.OutPort != pn.OutPort || ph.TTL != pn.TTL {
			t.Fatalf("packet %d: host %d/%d vs nic %d/%d", i, ph.OutPort, ph.TTL, pn.OutPort, pn.TTL)
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
