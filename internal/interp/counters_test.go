package interp

import (
	"fmt"
	"testing"

	"clara/internal/traffic"
)

// Native counters must agree exactly with what the closure hooks report:
// the host profiler switched from hooks to counters, so any divergence
// would silently change every access profile.
func TestCountersMatchHooks(t *testing.T) {
	src := `
global u32 total;
map<u64,u64> conns[1024];
void handle() {
	u64 k = pkt_ip_src();
	u64 c = map_find(conns, k);
	map_insert(conns, k, c + 1);
	total += 1;
	if (pkt_ip_ttl() <= 1) { pkt_drop(); return; }
	pkt_send(1);
}
`
	mod := compile(t, "ctrhooks", src)
	run := func(m *Machine) {
		for i := 0; i < 200; i++ {
			p := tcpPacket(uint32(i%17), 2)
			if err := m.RunPacket(&p); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Reference run: accumulate the same shapes via hooks.
	hm, err := New(mod, Config{Mode: NICMap})
	if err != nil {
		t.Fatal(err)
	}
	nb := len(hm.blocks)
	gidx := hm.gidx
	refBlock := make([]uint64, nb)
	refState := make([]uint64, len(mod.Globals)*nb)
	refAPI := make([]uint64, len(mod.Globals)*nb)
	hm.SetHooks(Hooks{
		OnBlock: func(b int) { refBlock[b]++ },
		OnState: func(g string, _ bool, _ uint64, b int) { refState[gidx[g]*nb+b]++ },
		OnAPI: func(_, g string, probes int, _ uint64, b int) {
			if g != "" && probes > 0 {
				refAPI[gidx[g]*nb+b] += uint64(probes)
			}
		},
	})
	run(hm)

	cm, err := New(mod, Config{Mode: NICMap})
	if err != nil {
		t.Fatal(err)
	}
	cm.EnableCounters()
	run(cm)
	ctr := cm.Counters()

	if ctr.NBlocks != nb {
		t.Fatalf("NBlocks = %d, want %d", ctr.NBlocks, nb)
	}
	for b, want := range refBlock {
		if ctr.Block[b] != want {
			t.Errorf("Block[%d] = %d, want %d", b, ctr.Block[b], want)
		}
	}
	for i, want := range refState {
		if ctr.State[i] != want {
			t.Errorf("State[%d] = %d, want %d", i, ctr.State[i], want)
		}
	}
	for i, want := range refAPI {
		if ctr.API[i] != want {
			t.Errorf("API[%d] = %d, want %d", i, ctr.API[i], want)
		}
	}
}

// TestCountersReadAnytime: the step engine's chain entries are folded
// into Block and State when Counters is read, so the totals must not
// depend on when, or how often, that happens — nor on which loop ran each
// packet — and a second EnableCounters must forget everything before it.
func TestCountersReadAnytime(t *testing.T) {
	for _, src := range []string{natSrc, benchLoopSrc} {
		mod := compile(t, "anytime", src)
		pkts := traffic.MustTrace(traffic.MediumMix, 96)
		// counted runs every packet through a fresh machine, counting from
		// packet from on, and reads the counters after every packet that
		// every reports true for; run picks the loop per packet.
		counted := func(from int, every func(int) bool, run func(*Machine, int, *traffic.Packet) error) string {
			m, err := New(mod, Config{Mode: NICMap})
			if err != nil {
				t.Fatal(err)
			}
			defer m.Release()
			for i := range pkts {
				if i == from {
					m.EnableCounters()
				}
				p := pkts[i]
				p.Payload = append([]byte(nil), p.Payload...)
				if err := run(m, i, &p); err != nil {
					t.Fatal(err)
				}
				if every(i) {
					m.Counters()
				}
			}
			c := m.Counters()
			return fmt.Sprint(c.Block, c.State, c.API)
		}
		steps := func(m *Machine, _ int, p *traffic.Packet) error { return m.RunPacket(p) }
		ref := func(m *Machine, _ int, p *traffic.Packet) error { return m.runReference(p) }
		never := func(int) bool { return false }
		always := func(int) bool { return true }

		want := counted(0, never, ref)
		if got := counted(0, never, steps); got != want {
			t.Errorf("read once at the end: %s\nreference: %s", got, want)
		}
		if got := counted(0, always, steps); got != want {
			t.Errorf("read after every packet: %s\nreference: %s", got, want)
		}
		alternate := func(m *Machine, i int, p *traffic.Packet) error {
			if i%2 == 0 {
				m.SetHooks(Hooks{OnBlock: func(int) {}})
			} else {
				m.SetHooks(Hooks{})
			}
			return m.RunPacket(p)
		}
		if got := counted(0, func(i int) bool { return i%3 == 0 }, alternate); got != want {
			t.Errorf("hooked and unhooked packets alternating: %s\nreference: %s", got, want)
		}

		// A second EnableCounters starts from zero, dropping chain entries
		// the first set has not folded yet.
		const from = 40
		later := counted(from, never, ref)
		if later == want {
			t.Fatal("counting from packet 0 and from packet 40 read the same; the check cannot tell")
		}
		again := func(m *Machine, i int, p *traffic.Packet) error {
			if i == from {
				m.EnableCounters()
			}
			return m.RunPacket(p)
		}
		if got := counted(0, never, again); got != later {
			t.Errorf("second EnableCounters at packet %d: %s\nreference from there: %s", from, got, later)
		}
	}
}

// Machines for the same module share one compiled program, and const
// pooling must not let one machine's execution leak values into another:
// the pool region is read-only at runtime and all mutable state is
// per-machine.
func TestSharedProgramIsolation(t *testing.T) {
	src := `
global u32 count;
void handle() {
	count += 1;
	pkt_send(1);
}
`
	mod := compile(t, "shared", src)
	m1, err := New(mod, Config{})
	if err != nil {
		t.Fatal(err)
	}
	m2, err := New(mod, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if &m1.blocks[0] != &m2.blocks[0] {
		t.Error("machines for the same module should share compiled blocks")
	}
	for i := 0; i < 5; i++ {
		p := tcpPacket(1, 2)
		if err := m1.RunPacket(&p); err != nil {
			t.Fatal(err)
		}
	}
	p := tcpPacket(1, 2)
	if err := m2.RunPacket(&p); err != nil {
		t.Fatal(err)
	}
	v1, _ := m1.Scalar("count")
	v2, _ := m2.Scalar("count")
	if v1 != 5 || v2 != 1 {
		t.Errorf("count: m1=%d m2=%d, want 5 and 1", v1, v2)
	}
}
