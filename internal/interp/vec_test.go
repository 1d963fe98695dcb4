package interp

import (
	"testing"

	"clara/internal/ir"
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

func vecMachine(t *testing.T) *Machine {
	t.Helper()
	mod, err := lang.Compile("vec", vecSrc)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(mod, Config{})
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
	m := vecMachine(t)
	run(t, m, op(1, 100, 0))
	run(t, m, op(1, 200, 0))
	run(t, m, op(1, 300, 0))
	if got := run(t, m, op(0, 0, 0)); got.OutPort != 3 {
		t.Errorf("len = %d, want 3", got.OutPort)
	}
	if got := run(t, m, op(3, 0, 1)); got.OutPort != 200 {
		t.Errorf("get(1) = %d, want 200", got.OutPort)
	}
}

// TestVecDeleteSemanticsDiverge is the §3.3 Vector.delete example: where a
// Click vector would shift its tail down, the NIC library only marks the
// slot invalid — so index 0 reads empty after delete(0) and the second
// element stays at index 1.
func TestVecDeleteSemanticsDiverge(t *testing.T) {
	nic := vecMachine(t)
	run(t, nic, op(1, 100, 0))
	run(t, nic, op(1, 200, 0))
	run(t, nic, op(2, 0, 0)) // delete index 0
	if got := run(t, nic, op(0, 0, 0)); got.OutPort != 1 {
		t.Errorf("nic len = %d", got.OutPort)
	}
	if got := run(t, nic, op(3, 0, 0)); got.OutPort != 0 {
		t.Errorf("nic get(0) = %d, want 0 (tombstone)", got.OutPort)
	}
	if got := run(t, nic, op(3, 0, 1)); got.OutPort != 200 {
		t.Errorf("nic get(1) = %d, want 200", got.OutPort)
	}
}

func TestVecNICCapacityFixed(t *testing.T) {
	nic := vecMachine(t)
	for i := uint32(0); i < 12; i++ {
		run(t, nic, op(1, 1000+i, 0))
	}
	if nl, _ := nic.VecLive("recent"); nl != 8 {
		t.Errorf("NIC vector grew past capacity: %d", nl)
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
	// Deleting the head of six elements touches one slot on the NIC, where
	// a Click vector would shift the whole tail. This is the performance
	// asymmetry reverse porting makes visible to Clara.
	m := vecMachine(t)
	for i := uint32(0); i < 6; i++ {
		run(t, m, op(1, i, 0))
	}
	probes := 0
	m.SetHooks(Hooks{OnAPI: func(api ir.API, _ int, p int, _ uint64, _ int) {
		if api == ir.APIVecDelete {
			probes = p
		}
	}})
	run(t, m, op(2, 0, 0))
	if probes != 1 {
		t.Errorf("NIC delete probes = %d, want 1", probes)
	}
}
