package interp

import (
	"testing"

	"clara/internal/lang"
	"clara/internal/traffic"
)

const vecSrc = `
vec<u64> recent[8];
global u32 pushed;

void handle() {
	u8 op = pkt_ip_ttl();
	if (op == 1) {
		if (vec_push(recent, u64(pkt_ip_src()))) { pushed += 1; }
	}
	if (op == 2) {
		vec_delete(recent, pkt_tcp_sport());
	}
	if (op == 3) {
		pkt_send(u32(vec_get(recent, pkt_tcp_sport())));
		return;
	}
	pkt_send(u32(vec_len(recent)));
}
`

func vecMachine(t *testing.T, mode MapMode) *Machine {
	t.Helper()
	mod, err := lang.Compile("vec", vecSrc)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(mod, Config{Mode: mode})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func op(ttl uint8, src uint32, idx uint16) traffic.Packet {
	return traffic.Packet{TTL: ttl, SrcIP: src, SrcPort: idx, Proto: traffic.ProtoTCP, OutPort: -2}
}

func run(t *testing.T, m *Machine, p traffic.Packet) traffic.Packet {
	t.Helper()
	if err := m.RunPacket(&p); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestVecPushGetLen(t *testing.T) {
	for _, mode := range []MapMode{HostMap, NICMap} {
		m := vecMachine(t, mode)
		run(t, m, op(1, 100, 0))
		run(t, m, op(1, 200, 0))
		run(t, m, op(1, 300, 0))
		if got := run(t, m, op(0, 0, 0)); got.OutPort != 3 {
			t.Errorf("mode %d: len = %d, want 3", mode, got.OutPort)
		}
		if got := run(t, m, op(3, 0, 1)); got.OutPort != 200 {
			t.Errorf("mode %d: get(1) = %d, want 200", mode, got.OutPort)
		}
	}
}

// TestVecDeleteSemanticsDiverge is the §3.3 Vector.delete example: the
// Click host vector shifts the tail down, the NIC library only marks the
// slot invalid — so the element visible at index 0 after delete(0) differs.
func TestVecDeleteSemanticsDiverge(t *testing.T) {
	host := vecMachine(t, HostMap)
	nic := vecMachine(t, NICMap)
	for _, m := range []*Machine{host, nic} {
		run(t, m, op(1, 100, 0))
		run(t, m, op(1, 200, 0))
		run(t, m, op(2, 0, 0)) // delete index 0
	}
	// Both report one live element...
	if got := run(t, host, op(0, 0, 0)); got.OutPort != 1 {
		t.Errorf("host len = %d", got.OutPort)
	}
	if got := run(t, nic, op(0, 0, 0)); got.OutPort != 1 {
		t.Errorf("nic len = %d", got.OutPort)
	}
	// ...but index 0 now reads 200 on the host (shifted) and 0 on the NIC
	// (tombstoned slot).
	if got := run(t, host, op(3, 0, 0)); got.OutPort != 200 {
		t.Errorf("host get(0) = %d, want 200 (shifted)", got.OutPort)
	}
	if got := run(t, nic, op(3, 0, 0)); got.OutPort != 0 {
		t.Errorf("nic get(0) = %d, want 0 (tombstone)", got.OutPort)
	}
	// The NIC keeps 200 at its original slot 1.
	if got := run(t, nic, op(3, 0, 1)); got.OutPort != 200 {
		t.Errorf("nic get(1) = %d, want 200", got.OutPort)
	}
}

func TestVecNICCapacityFixed(t *testing.T) {
	nic := vecMachine(t, NICMap)
	host := vecMachine(t, HostMap)
	for i := uint32(0); i < 12; i++ {
		run(t, nic, op(1, 1000+i, 0))
		run(t, host, op(1, 1000+i, 0))
	}
	nl, _ := nic.VecLive("recent")
	hl, _ := host.VecLive("recent")
	if nl != 8 {
		t.Errorf("NIC vector grew past capacity: %d", nl)
	}
	if hl != 12 {
		t.Errorf("host vector should be elastic: %d", hl)
	}
	if d, _ := nic.VecDropped("recent"); d != 4 {
		t.Errorf("dropped = %d, want 4", d)
	}
	// NIC pushes reuse tombstoned slots.
	run(t, nic, op(2, 0, 3)) // delete slot 3
	run(t, nic, op(1, 7777, 0))
	if v, ok, _ := nic.VecAt("recent", 3); !ok || v != 7777 {
		t.Errorf("tombstoned slot not reused: %v %v", v, ok)
	}
}

func TestVecDeleteProbeCostsDiverge(t *testing.T) {
	// Host delete of the head touches the whole tail; NIC delete touches
	// one slot. This is the performance asymmetry reverse porting makes
	// visible to Clara.
	probesFor := func(mode MapMode) int {
		m := vecMachine(t, mode)
		for i := uint32(0); i < 6; i++ {
			run(t, m, op(1, i, 0))
		}
		probes := 0
		m.SetHooks(Hooks{OnAPI: func(name, _ string, p int, _ uint64, _ int) {
			if name == "vec_delete" {
				probes = p
			}
		}})
		run(t, m, op(2, 0, 0))
		return probes
	}
	h := probesFor(HostMap)
	n := probesFor(NICMap)
	if h <= n {
		t.Errorf("host delete probes %d should exceed NIC probes %d", h, n)
	}
	if n != 1 {
		t.Errorf("NIC delete probes = %d, want 1", n)
	}
}
