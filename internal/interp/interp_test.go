package interp

import (
	"testing"
	"testing/quick"

	"clara/internal/ir"
	"clara/internal/lang"
	"clara/internal/traffic"
)

func compile(t *testing.T, name, src string) *ir.Module {
	t.Helper()
	m, err := lang.Compile(name, src)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func tcpPacket(src, dst uint32) traffic.Packet {
	return traffic.Packet{
		Len: 128, EthType: traffic.EthIPv4, Proto: traffic.ProtoTCP,
		SrcIP: src, DstIP: dst, TTL: 64, IPLen: 114, IPHL: 5,
		SrcPort: 1234, DstPort: 80, TCPOff: 5, OutPort: -2,
		Payload: []byte{1, 2, 3, 4, 5, 6, 7, 8},
	}
}

func TestArithmeticAndForwarding(t *testing.T) {
	src := `
global u32 seen;
void handle() {
	u8 ttl = pkt_ip_ttl();
	if (ttl <= 1) { pkt_drop(); return; }
	pkt_set_ip_ttl(ttl - 1);
	seen += 1;
	pkt_send(2);
}
`
	m, err := New(compile(t, "ttl", src), Config{})
	if err != nil {
		t.Fatal(err)
	}
	p := tcpPacket(1, 2)
	if err := m.RunPacket(&p); err != nil {
		t.Fatal(err)
	}
	if p.TTL != 63 || p.OutPort != 2 {
		t.Errorf("TTL=%d OutPort=%d", p.TTL, p.OutPort)
	}
	p.TTL = 1
	if err := m.RunPacket(&p); err != nil {
		t.Fatal(err)
	}
	if !p.Dropped() {
		t.Error("TTL=1 packet not dropped")
	}
	if v, _ := m.Scalar("seen"); v != 1 {
		t.Errorf("seen=%d, want 1", v)
	}
}

const natSrc = `
map<u64,u64> nat[1024];
global u32 misses;
void handle() {
	u64 key = (u64(pkt_ip_src()) << 32) | u64(pkt_ip_dst());
	if (map_contains(nat, key)) {
		u64 f = map_find(nat, key);
		pkt_set_ip_dst(u32(f >> 16));
		pkt_set_tcp_dport(u16(f & 0xffff));
		pkt_csum_update();
		pkt_send(0);
	} else {
		misses += 1;
		map_insert(nat, key, (u64(pkt_ip_dst()) << 16) | 8080);
		pkt_drop();
	}
}
`

func TestMapSemanticsHostVsNIC(t *testing.T) {
	mod := compile(t, "nat", natSrc)
	m, err := New(mod, Config{})
	if err != nil {
		t.Fatal(err)
	}
	p := tcpPacket(0xC0A80001, 0x0A000001)
	if err := m.RunPacket(&p); err != nil {
		t.Fatal(err)
	}
	if !p.Dropped() {
		t.Fatal("first packet should miss")
	}
	p = tcpPacket(0xC0A80001, 0x0A000001)
	if err := m.RunPacket(&p); err != nil {
		t.Fatal(err)
	}
	if p.OutPort != 0 || p.DstIP != 0x0A000001>>0 && p.DstPort != 8080 {
		t.Fatalf("second packet not translated: port=%d dst=%x dport=%d",
			p.OutPort, p.DstIP, p.DstPort)
	}
	if !p.CsumUpdated {
		t.Fatal("checksum not updated")
	}
	if n, _ := m.MapLen("nat"); n != 1 {
		t.Fatalf("map size %d", n)
	}
}

func TestNICMapBucketOverflow(t *testing.T) {
	// Capacity 4 => a single bucket of 4 slots. Force 16 distinct keys into
	// it; the map must keep the first 4 and drop the other 12 inserts, where
	// a Click HashMap would grow.
	src := `
map<u64,u64> m[4];
void handle() {
	map_insert(m, u64(pkt_ip_src()), 1);
	pkt_send(0);
}
`
	mod := compile(t, "overflow", src)
	nic, err := New(mod, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint32(0); i < 16; i++ {
		p := tcpPacket(i, 9)
		if err := nic.RunPacket(&p); err != nil {
			t.Fatal(err)
		}
	}
	if nn, _ := nic.MapLen("m"); nn != 4 {
		t.Errorf("NIC map holds %d entries, want its capacity 4", nn)
	}
	if fi, _ := nic.FailedInserts("m"); fi != 12 {
		t.Errorf("NIC map failed %d inserts, want 12", fi)
	}
}

func TestNICMapRemoveMarksInvalid(t *testing.T) {
	src := `
map<u64,u64> m[64];
void handle() {
	if (pkt_ip_ttl() == 1) { map_insert(m, 7, 42); }
	if (pkt_ip_ttl() == 2) { map_remove(m, 7); }
	pkt_send(0);
}
`
	m, err := New(compile(t, "rm", src), Config{})
	if err != nil {
		t.Fatal(err)
	}
	p := tcpPacket(1, 2)
	p.TTL = 1
	if err := m.RunPacket(&p); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := m.MapGet("m", 7); !ok {
		t.Fatal("insert failed")
	}
	p.TTL = 2
	if err := m.RunPacket(&p); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := m.MapGet("m", 7); ok {
		t.Fatal("remove failed")
	}
	if n, _ := m.MapLen("m"); n != 0 {
		t.Fatalf("size %d after remove", n)
	}
	// Reinsertion reuses the invalidated slot.
	p.TTL = 1
	if err := m.RunPacket(&p); err != nil {
		t.Fatal(err)
	}
	if v, ok, _ := m.MapGet("m", 7); !ok || v != 42 {
		t.Fatal("reinsert after remove failed")
	}
}

// TestMapSizeAddressZero: map_size reads no bucket, so its API event
// carries no probes and address 0 on every packet, as vec_len's does,
// whatever the packet's earlier values are.
func TestMapSizeAddressZero(t *testing.T) {
	src := `
map<u64,u64> m[64];
void handle() {
	map_insert(m, u64(pkt_ip_src()), 1);
	pkt_send(u32(map_size(m)));
}
`
	m, err := New(compile(t, "size", src), Config{})
	if err != nil {
		t.Fatal(err)
	}
	sizes := 0
	m.SetHooks(Hooks{OnAPI: func(api ir.API, _ int, probes int, addr uint64, _ int) {
		if api != ir.APIMapSize {
			return
		}
		sizes++
		if probes != 0 || addr != 0 {
			t.Errorf("map_size event %d: probes %d, address %d; want 0, 0", sizes, probes, addr)
		}
	}})
	for i := uint32(0); i < 16; i++ {
		p := tcpPacket(0x0A000000+i*7919, 9)
		if err := m.RunPacket(&p); err != nil {
			t.Fatal(err)
		}
	}
	if sizes != 16 {
		t.Errorf("saw %d map_size events, want 16", sizes)
	}
}

func TestFuelStopsRunawayLoop(t *testing.T) {
	src := `
void handle() {
	u32 i = 0;
	while (true) { i += 1; }
}
`
	m, err := New(compile(t, "loop", src), Config{Fuel: 10000})
	if err != nil {
		t.Fatal(err)
	}
	p := tcpPacket(1, 2)
	if err := m.RunPacket(&p); err != ErrFuel {
		t.Fatalf("err = %v, want ErrFuel", err)
	}
}

func TestHooksFire(t *testing.T) {
	mod := compile(t, "nat", natSrc)
	m, err := New(mod, Config{})
	if err != nil {
		t.Fatal(err)
	}
	var blocks, state, api int
	m.SetHooks(Hooks{
		OnBlock: func(int) { blocks++ },
		OnState: func(int, bool, uint64, int) { state++ },
		OnAPI: func(code ir.API, global int, probes int, _ uint64, _ int) {
			api++
			if code == ir.APIMapInsert && (global < 0 || mod.Globals[global].Name != "nat") {
				t.Errorf("map_insert global = %d", global)
			}
			if code == ir.APIMapInsert && probes < 1 {
				t.Errorf("map_insert probes = %d", probes)
			}
		},
	})
	p := tcpPacket(3, 4)
	if err := m.RunPacket(&p); err != nil {
		t.Fatal(err)
	}
	if blocks == 0 || state == 0 || api == 0 {
		t.Errorf("hooks missed events: blocks=%d state=%d api=%d", blocks, state, api)
	}
}

func TestCRC32KnownVector(t *testing.T) {
	// IEEE CRC-32 of "123456789" is 0xCBF43926.
	data := []byte("123456789")
	if got := CRC32(data, 0, 9); got != 0xCBF43926 {
		t.Errorf("CRC32 = %08x, want CBF43926", got)
	}
	if CRC32(data, 100, 4) != 0 {
		t.Error("out-of-range CRC should be 0")
	}
}

func TestLPMLookup(t *testing.T) {
	table := []Route{
		{Prefix: 0x0A000000, Len: 8, Port: 1},
		{Prefix: 0x0A010000, Len: 16, Port: 2},
		{Prefix: 0x0A010100, Len: 24, Port: 3},
	}
	src := `
void handle() {
	u32 port = lpm_hw(pkt_ip_dst());
	if (port == 0xffffffff) { pkt_drop(); return; }
	pkt_send(port);
}
`
	m, err := New(compile(t, "lpm", src), Config{LPMTable: table})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		dst  uint32
		port int32
	}{
		{0x0A020304, 1},  // matches /8 only
		{0x0A01FF01, 2},  // /16
		{0x0A010105, 3},  // /24 longest
		{0x0B000001, -1}, // no match -> drop
	}
	for _, c := range cases {
		p := tcpPacket(1, c.dst)
		if err := m.RunPacket(&p); err != nil {
			t.Fatal(err)
		}
		if p.OutPort != c.port {
			t.Errorf("dst %08x -> port %d, want %d", c.dst, p.OutPort, c.port)
		}
	}
}

func TestDivRemByZeroFirmwareSemantics(t *testing.T) {
	src := `
global u32 q;
global u32 r;
void handle() {
	u32 d = u32(pkt_ip_ttl());
	q = 100 / d;
	r = 100 % d;
	pkt_send(0);
}
`
	m, err := New(compile(t, "div", src), Config{})
	if err != nil {
		t.Fatal(err)
	}
	p := tcpPacket(1, 2)
	p.TTL = 0
	if err := m.RunPacket(&p); err != nil {
		t.Fatal(err)
	}
	q, _ := m.Scalar("q")
	r, _ := m.Scalar("r")
	if q != 0xffffffff || r != 0 {
		t.Errorf("q=%x r=%x; want all-ones and 0", q, r)
	}
}

func TestMaskingPropertyU16(t *testing.T) {
	src := `
global u64 out;
void handle() {
	u16 a = u16(pkt_ip_len());
	u16 b = u16(pkt_tcp_sport());
	out = u64(a * b);
	pkt_send(0);
}
`
	m, err := New(compile(t, "mask", src), Config{})
	if err != nil {
		t.Fatal(err)
	}
	f := func(a, b uint16) bool {
		p := tcpPacket(1, 2)
		p.IPLen = a
		p.SrcPort = b
		if err := m.RunPacket(&p); err != nil {
			return false
		}
		got, _ := m.Scalar("out")
		return got == uint64(a*b) // Go u16 mul wraps identically
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestArrayIndexWraps(t *testing.T) {
	src := `
global u32 a[8];
void handle() {
	a[pkt_ip_src()] += 1;
	pkt_send(0);
}
`
	m, err := New(compile(t, "wrap", src), Config{})
	if err != nil {
		t.Fatal(err)
	}
	p := tcpPacket(9, 2) // 9 % 8 == 1
	if err := m.RunPacket(&p); err != nil {
		t.Fatal(err)
	}
	if v, _ := m.ArrayAt("a", 1); v != 1 {
		t.Errorf("a[1] = %d, want 1", v)
	}
}

func TestRand32Deterministic(t *testing.T) {
	src := `
global u32 x;
void handle() { x = rand32(); pkt_send(0); }
`
	run := func() uint64 {
		m, err := New(compile(t, "rng", src), Config{})
		if err != nil {
			t.Fatal(err)
		}
		p := tcpPacket(1, 2)
		if err := m.RunPacket(&p); err != nil {
			t.Fatal(err)
		}
		v, _ := m.Scalar("x")
		return v
	}
	if run() != run() {
		t.Error("rand32 not deterministic across identical machines")
	}
}

// A module the step engine cannot lower must be refused by New and
// Precompile with ir.Verify's error, wrapped with the module's name, not run
// on a different engine forever. lang.Compile never emits these shapes; the
// IR is hand-built.
func TestNewRejectsUnlowerableModule(t *testing.T) {
	midTerm := ir.NewBuilder(ir.HandlerName, ir.Void)
	midTerm.Ret(nil)
	midTerm.Call("pkt_drop", "", ir.Void)
	midTerm.Ret(nil)

	wrongKind := ir.NewBuilder(ir.HandlerName, ir.Void)
	entry, body := wrongKind.Current(), wrongKind.NewBlock("body")
	wrongKind.SetBlock(entry)
	wrongKind.Br(body)
	wrongKind.SetBlock(body)
	wrongKind.Call("map_find", "tbl", ir.U64, ir.ConstVal(1, ir.U64))
	wrongKind.Ret(nil)

	for _, tc := range []struct {
		mod  *ir.Module
		want string
	}{
		{&ir.Module{Name: "midterm", Func: midTerm.F},
			"interp: midterm: func handle: b0: terminator ret not last"},
		{&ir.Module{Name: "wrongkind", Func: wrongKind.F,
			Globals: []*ir.Global{{Name: "tbl", Kind: ir.GArray, Elem: ir.U64, Len: 8}}},
			`interp: wrongkind: func handle: b1: %0 = call u64 @map_find<tbl> 1: "tbl" is not a map`},
	} {
		verr := ir.Verify(tc.mod)
		if verr == nil || "interp: "+tc.mod.Name+": "+verr.Error() != tc.want {
			t.Errorf("ir.Verify(%s) = %v, want it to give %q", tc.mod.Name, verr, tc.want)
		}
		_, err := New(tc.mod, Config{})
		if err == nil || err.Error() != tc.want {
			t.Errorf("New(%s) error = %v, want %q", tc.mod.Name, err, tc.want)
		}
		if perr := Precompile(tc.mod); perr == nil || perr.Error() != err.Error() {
			t.Errorf("Precompile(%s) error = %v, want New's: %v", tc.mod.Name, perr, err)
		}
	}
}
