package niccc

import (
	"testing"

	"clara/internal/ir"
	"clara/internal/isa"
	"clara/internal/lang"
)

func compile(t *testing.T, src string, opts Options) (*ir.Module, *isa.Program) {
	t.Helper()
	m, err := lang.Compile("t", src)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Compile(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	return m, p
}

func totalOf(p *isa.Program, pred func(isa.Instr) bool) int {
	n := 0
	for _, b := range p.Blocks {
		for _, in := range b.Instrs {
			if pred(in) {
				n++
			}
		}
	}
	return n
}

func TestBlocksAlignWithIR(t *testing.T) {
	m, p := compile(t, `
global u32 c;
void handle() {
	if (pkt_ip_ttl() > 1) { c += 1; }
	pkt_send(0);
}
`, Options{})
	if len(p.Blocks) != len(m.Handler().Blocks) {
		t.Fatalf("compiled %d blocks for %d IR blocks", len(p.Blocks), len(m.Handler().Blocks))
	}
}

func TestICmpBranchFusion(t *testing.T) {
	// The compare feeding the branch fuses: no cmp/cset ALUs, one bcc.
	_, p := compile(t, `
void handle() {
	if (pkt_ip_ttl() > 1) { pkt_send(0); } else { pkt_drop(); }
}
`, Options{})
	cmps := totalOf(p, func(in isa.Instr) bool { return in.Sub == "cmp" || in.Sub == "cset" })
	if cmps != 0 {
		t.Errorf("fused compare still emitted %d cmp/cset", cmps)
	}
	bccs := totalOf(p, func(in isa.Instr) bool { return in.Op == isa.OpBcc })
	if bccs != 1 {
		t.Errorf("bcc count = %d, want 1", bccs)
	}
}

func TestICmpAsValueNotFused(t *testing.T) {
	// Comparison used as a value (stored) cannot fuse.
	_, p := compile(t, `
global u32 flag;
void handle() {
	bool b = pkt_ip_ttl() > 1;
	flag = u32(b);
	pkt_send(0);
}
`, Options{})
	cmps := totalOf(p, func(in isa.Instr) bool { return in.Sub == "cmp" })
	if cmps != 1 {
		t.Errorf("unfused compare emitted %d cmp, want 1", cmps)
	}
}

func TestMulStrengthReduction(t *testing.T) {
	cases := []struct {
		expr string
		op   string
		n    int
	}{
		{"x * 8", "shl", 1},       // power of two
		{"x * 10", "shladd", 3},   // popcount 2 -> 3 shladds
		{"x * 2654435761", "", 8}, // dense constant -> 8 mul steps
	}
	for _, c := range cases {
		_, p := compile(t, `
global u32 out;
void handle() {
	u32 x = pkt_ip_src();
	out = `+c.expr+`;
	pkt_send(0);
}
`, Options{})
		if c.op != "" {
			n := totalOf(p, func(in isa.Instr) bool { return in.Sub == c.op })
			if n != c.n {
				t.Errorf("%s: %d %s ops, want %d", c.expr, n, c.op, c.n)
			}
		} else {
			n := totalOf(p, func(in isa.Instr) bool { return in.Op == isa.OpMulStep })
			if n != c.n {
				t.Errorf("%s: %d mul steps, want %d", c.expr, n, c.n)
			}
		}
	}
}

func TestVariableMulUsesSequencer(t *testing.T) {
	_, p := compile(t, `
global u32 out;
void handle() {
	out = pkt_ip_src() * pkt_ip_dst();
	pkt_send(0);
}
`, Options{})
	if n := totalOf(p, func(in isa.Instr) bool { return in.Op == isa.OpMulStep }); n != 8 {
		t.Errorf("variable mul emitted %d steps, want 8", n)
	}
}

func TestDivByPowerOfTwoVsGeneral(t *testing.T) {
	_, p := compile(t, `
global u32 a;
global u32 b;
void handle() {
	a = pkt_ip_src() / 16;
	b = pkt_ip_src() / 10;
	pkt_send(0);
}
`, Options{})
	if n := totalOf(p, func(in isa.Instr) bool { return in.Op == isa.OpDivStep }); n != 24 {
		t.Errorf("div steps = %d, want 24 (one general divide)", n)
	}
}

func TestImmediateCaching(t *testing.T) {
	// The same large constant used twice in a block loads once.
	_, p := compile(t, `
global u32 a;
void handle() {
	u32 x = pkt_ip_src();
	a = (x ^ 0xdeadbeef) + (x & 0xdeadbeef) + (x | 12);
	pkt_send(0);
}
`, Options{})
	if n := totalOf(p, func(in isa.Instr) bool { return in.Op == isa.OpImmed }); n != 1 {
		t.Errorf("immed count = %d, want 1 (cached big const, folded small)", n)
	}
}

func TestZExtFreeTruncMasks(t *testing.T) {
	_, p := compile(t, `
global u64 a;
global u8 b;
void handle() {
	a = u64(pkt_ip_src());       // zext: free
	b = u8(pkt_ip_dst());        // trunc to u8: mask
	pkt_send(0);
}
`, Options{})
	if n := totalOf(p, func(in isa.Instr) bool { return in.Sub == "mask" }); n != 1 {
		t.Errorf("mask count = %d, want 1", n)
	}
}

func TestRegisterAllocationSpills(t *testing.T) {
	// A handler with few locals spills nothing.
	_, small := compile(t, `
void handle() {
	u32 a = pkt_ip_src();
	u32 b = pkt_ip_dst();
	if (a > b) { pkt_send(0); } else { pkt_drop(); }
}
`, Options{})
	if n := totalOf(small, func(in isa.Instr) bool { return in.Op == isa.OpSpill }); n != 0 {
		t.Errorf("small handler spilled %d", n)
	}

	// A handler with > NumGPRs live locals spills the cold ones.
	src := "global u32 out;\nvoid handle() {\n"
	for i := 0; i < NumGPRs+6; i++ {
		src += "\tu32 v" + string(rune('a'+i%26)) + string(rune('0'+i/26)) + " = pkt_ip_src() + " + string(rune('0'+i%10)) + ";\n"
	}
	src += "\tout = "
	for i := 0; i < NumGPRs+6; i++ {
		if i > 0 {
			src += " + "
		}
		src += "v" + string(rune('a'+i%26)) + string(rune('0'+i/26))
	}
	src += ";\n\tpkt_send(0);\n}\n"
	_, big := compile(t, src, Options{})
	if n := totalOf(big, func(in isa.Instr) bool { return in.Op == isa.OpSpill }); n == 0 {
		t.Error("register pressure produced no spills")
	}
}

func TestRedundantScalarLoadElimination(t *testing.T) {
	m, p := compile(t, `
global u32 g;
void handle() {
	u32 a = g;
	u32 b = g;   // redundant in the same block
	if (a == b) { pkt_send(0); } else { pkt_drop(); }
}
`, Options{})
	irMem := ir.ModuleStats(m).StateMem
	nicMem := p.TotalMem()
	if irMem != 2 {
		t.Fatalf("IR mem count = %d, want 2", irMem)
	}
	if nicMem != 1 {
		t.Errorf("NIC mem count = %d, want 1 (reload eliminated)", nicMem)
	}
}

func TestStoreKillsScalarCache(t *testing.T) {
	_, p := compile(t, `
global u32 g;
void handle() {
	u32 a = g;
	g = a + 1;
	u32 b = g;   // must reload after the store
	if (b > 0) { pkt_send(0); } else { pkt_drop(); }
}
`, Options{})
	if n := p.TotalMem(); n != 3 {
		t.Errorf("mem count = %d, want 3", n)
	}
}

func TestShlAddFusion(t *testing.T) {
	_, p := compile(t, `
global u32 out;
void handle() {
	u32 x = pkt_ip_src();
	u32 y = pkt_ip_dst();
	out = (x << 2) + y;
	pkt_send(0);
}
`, Options{})
	shls := totalOf(p, func(in isa.Instr) bool { return in.Sub == "shl" })
	if shls != 0 {
		t.Errorf("shl feeding add should be absorbed, got %d shl", shls)
	}
}

func TestAccelConfigSwitchesChecksum(t *testing.T) {
	src := `
void handle() { pkt_csum_update(); pkt_send(0); }
`
	_, sw := compile(t, src, Options{})
	_, hw := compile(t, src, Options{Accel: AccelConfig{CsumEngine: true}})
	swLib := totalOf(sw, func(in isa.Instr) bool { return in.Sub == "csum_sw" })
	hwEng := totalOf(hw, func(in isa.Instr) bool { return in.Op == isa.OpCsum })
	if swLib != 1 || hwEng != 1 {
		t.Errorf("csum lowering wrong: sw=%d hw=%d", swLib, hwEng)
	}
	swInstr, _ := APIInstrCount("pkt_csum_update", AccelConfig{})
	hwInstr, _ := APIInstrCount("pkt_csum_update", AccelConfig{CsumEngine: true})
	if swInstr < 100*hwInstr {
		t.Errorf("software csum (%d) should dwarf engine csum (%d)", swInstr, hwInstr)
	}
}

func TestCRCFallsBackToSoftware(t *testing.T) {
	src := `
global u32 out;
void handle() { out = crc32_hw(0, 64); pkt_send(0); }
`
	_, sw := compile(t, src, Options{})
	_, hw := compile(t, src, Options{Accel: AccelConfig{CRCEngine: true}})
	if n := totalOf(sw, func(in isa.Instr) bool { return in.Sub == "crc32_sw" }); n != 1 {
		t.Errorf("software fallback missing: %d", n)
	}
	if n := totalOf(hw, func(in isa.Instr) bool { return in.Op == isa.OpCrc }); n != 1 {
		t.Errorf("CRC engine op missing: %d", n)
	}
}

func TestDeterministicCompilation(t *testing.T) {
	src := `
map<u64,u64> m[256];
global u32 c[64];
void handle() {
	u64 k = u64(pkt_ip_src());
	if (map_contains(m, k)) { c[u32(k) & 63] += 1; }
	else { map_insert(m, k, 1); }
	pkt_send(0);
}
`
	_, p1 := compile(t, src, Options{})
	_, p2 := compile(t, src, Options{})
	if p1.TotalCompute() != p2.TotalCompute() || p1.TotalMem() != p2.TotalMem() {
		t.Error("compilation not deterministic")
	}
	for i := range p1.Blocks {
		if len(p1.Blocks[i].Instrs) != len(p2.Blocks[i].Instrs) {
			t.Fatalf("block %d differs", i)
		}
	}
}

// TestLibraryProfilesComplete: every framework API must lower to routines
// the library can cost, whichever engines are on.
func TestLibraryProfilesComplete(t *testing.T) {
	for bits := 0; bits < 16; bits++ {
		accel := AccelConfig{CsumEngine: bits&1 != 0, CRCEngine: bits&2 != 0, LPMEngine: bits&4 != 0, FlowCache: bits&8 != 0}
		for _, a := range ir.APIs {
			if n, ok := APIInstrCount(a.Name, accel); !ok || n <= 0 {
				t.Errorf("APIInstrCount(%q, %+v) = %d,%v", a.Name, accel, n, ok)
			}
		}
	}
}

func TestSummarizeCounts(t *testing.T) {
	b := isa.Block{Instrs: []isa.Instr{
		{Op: isa.OpALU}, {Op: isa.OpImmed}, {Op: isa.OpMemRead, Size: 4},
		{Op: isa.OpBcc}, {Op: isa.OpLibCall, Sub: "map_find"},
	}}
	b.Summarize()
	if b.ComputeCount != 3 || b.MemCount != 1 {
		t.Errorf("summary = %d compute/%d mem, want 3/1", b.ComputeCount, b.MemCount)
	}
	if b.ComputeCycles != 1+1+2 {
		t.Errorf("cycles = %d, want 4", b.ComputeCycles)
	}
}
