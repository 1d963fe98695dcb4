package lang

import (
	"strings"
	"testing"
	"unsafe"

	"clara/internal/ir"
)

const miniNAT = `
// MiniNAT: the Figure 4 example, in NFC.
map<u64,u64> int_map[4096];

void handle() {
	u16 hl = u16(pkt_ip_hl()) << 2;
	u16 tl = pkt_ip_len();
	if (hl < tl) {
		u64 key = (u64(pkt_ip_dst()) << 32) | u64(pkt_ip_src());
		if (map_contains(int_map, key)) {
			u64 f = map_find(int_map, key);
			pkt_set_ip_dst(u32(f >> 16));
			pkt_set_tcp_dport(u16(f & 0xffff));
			pkt_csum_update();
			pkt_send(0);
			return;
		}
	}
	pkt_drop();
}
`

func TestLexAll(t *testing.T) {
	toks, err := LexAll("u32 x = 0x1f + 2; // comment\nif (x<=3) { x <<= 1; }")
	if err != nil {
		t.Fatal(err)
	}
	var texts []string
	for _, tk := range toks {
		if tk.Kind != TEOF {
			texts = append(texts, tk.Text)
		}
	}
	want := "u32 x = 0x1f + 2 ; if ( x <= 3 ) { x <<= 1 ; }"
	if got := strings.Join(texts, " "); got != want {
		t.Errorf("tokens = %q, want %q", got, want)
	}
	if toks[3].Val != 0x1f {
		t.Errorf("hex literal = %d, want 31", toks[3].Val)
	}
}

func TestLexErrors(t *testing.T) {
	if _, err := LexAll("u32 x @ 1;"); err == nil {
		t.Error("lexer accepted '@'")
	}
	if _, err := LexAll("x = 99999999999999999999999;"); err == nil {
		t.Error("lexer accepted overflowing literal")
	}
}

func TestCompileMiniNAT(t *testing.T) {
	m, err := Compile("mininat", miniNAT)
	if err != nil {
		t.Fatal(err)
	}
	if err := ir.Verify(m); err != nil {
		t.Fatal(err)
	}
	g := m.Global("int_map")
	if g == nil || g.Kind != ir.GMap || g.Len != 4096 {
		t.Fatalf("int_map global wrong: %+v", g)
	}
	st := ir.ModuleStats(m)
	if st.APICalls < 8 {
		t.Errorf("expected >=8 API calls, got %d", st.APICalls)
	}
	if st.Compute < 5 {
		t.Errorf("expected compute instructions, got %d", st.Compute)
	}
	if st.Blocks < 4 {
		t.Errorf("expected a branching CFG, got %d blocks", st.Blocks)
	}
}

// TestGlobalNamesOwnTheirBytes: a global's name is not a slice of the
// source, so what outlives the module keyed by it (a state profile in the
// fleet's module store) does not keep the whole source alive.
func TestGlobalNamesOwnTheirBytes(t *testing.T) {
	src := strings.Clone(miniNAT)
	m, err := Compile("mininat", src)
	if err != nil {
		t.Fatal(err)
	}
	lo := uintptr(unsafe.Pointer(unsafe.StringData(src)))
	for _, g := range m.Globals {
		if p := uintptr(unsafe.Pointer(unsafe.StringData(g.Name))); p >= lo && p < lo+uintptr(len(src)) {
			t.Errorf("global %q shares the source's bytes", g.Name)
		}
	}
}

func TestCompileLoopsAndArrays(t *testing.T) {
	src := `
global u32 counters[256];
global u64 total;

void handle() {
	u32 i = 0;
	while (i < 256) {
		counters[i] = counters[i] + 1;
		i += 1;
	}
	for (u32 j = 0; j < 10; j += 2) {
		if (j == 4) { continue; }
		if (j == 8) { break; }
		total += u64(counters[j]);
	}
	pkt_send(0);
}
`
	m, err := Compile("loops", src)
	if err != nil {
		t.Fatal(err)
	}
	if err := ir.Verify(m); err != nil {
		t.Fatal(err)
	}
	// Each loop lowers to a head block that a later block branches back to.
	f := m.Handler()
	heads := map[int]bool{}
	for _, b := range f.Blocks {
		for _, s := range b.Succs() {
			if s <= b.Index && strings.HasPrefix(f.Blocks[s].Name, "head") {
				heads[s] = true
			}
		}
	}
	if len(heads) != 2 {
		t.Errorf("expected back edges into 2 loop heads, got %d", len(heads))
	}
}

func TestCompileUserFunctionInlining(t *testing.T) {
	src := `
global u32 acc;

u32 mix(u32 a, u32 b) {
	u32 x = a ^ b;
	if (x == 0) { return 1; }
	return x * 2654435761;
}

void handle() {
	acc = mix(pkt_ip_src(), pkt_ip_dst());
	pkt_send(0);
}
`
	m, err := Compile("inline", src)
	if err != nil {
		t.Fatal(err)
	}
	// Everything is inlined: only framework API calls remain.
	for _, b := range m.Handler().Blocks {
		for _, in := range b.Instrs {
			if _, ok := ir.LookupAPI(in.Callee); in.Op == ir.OpCall && !ok {
				t.Errorf("user call %q survived inlining", in.Callee)
			}
		}
	}
}

func TestCompileRejectsRecursion(t *testing.T) {
	src := `
u32 f(u32 n) { return f(n); }
void handle() { u32 x = f(1); pkt_drop(); }
`
	if _, err := Compile("rec", src); err == nil || !strings.Contains(err.Error(), "recursive") {
		t.Errorf("want recursion error, got %v", err)
	}
}

func TestCompileErrors(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"no-handler", `global u32 x;`, "no \"handle\""},
		{"undefined-var", `void handle() { x = 1; }`, "undefined"},
		{"undefined-func", `void handle() { u32 x = nope(); }`, "undefined function"},
		{"redeclared-global", "global u32 x;\nglobal u32 x;\nvoid handle() {}", "redeclared"},
		{"bad-map-arg", `void handle() { u64 v = map_find(42, 1); }`, "must name a stateful structure"},
		{"map-not-declared", `void handle() { u64 v = map_find(m, 1); }`, "is not a map"},
		{"arity", `void handle() { pkt_send(); }`, "expects 1 argument"},
		{"assign-to-map", "map<u64,u64> m[16];\nvoid handle() { m = 1; }", "map"},
		{"break-outside", `void handle() { break; }`, "break outside loop"},
		{"handler-params", `void handle(u32 x) { }`, "must be"},
		{"shadow-intrinsic", `u32 hash32(u64 k) { return 1; }
void handle() {}`, "shadows"},
		{"zero-cap-array", "global u32 a[0];\nvoid handle() {}", "positive capacity"},
	}
	for _, c := range cases {
		if _, err := Compile(c.name, c.src); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: want error containing %q, got %v", c.name, c.want, err)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		`void handle() {`,
		`void handle() } `,
		`global map<u64> m[4]; void handle(){}`,
		`void handle() { u32 x = ; }`,
		`void handle() { if x { } }`,
	}
	for _, src := range bad {
		if _, err := Compile("bad", src); err == nil {
			t.Errorf("accepted malformed source %q", src)
		}
	}
}

func TestTypeUnificationAndCasts(t *testing.T) {
	src := `
global u64 total;
void handle() {
	u8 a = pkt_ip_ttl();
	u16 b = pkt_ip_len();
	u32 c = u32(a) + u32(b);   // explicit widening
	u64 d = u64(c) * 3;        // literal takes the typed side's type
	if (a < b) { total += d; } // implicit unify u8 vs u16
	pkt_send(0);
}
`
	m, err := Compile("types", src)
	if err != nil {
		t.Fatal(err)
	}
	// Find at least one zext emitted by unification.
	found := false
	for _, b := range m.Handler().Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpZExt {
				found = true
			}
		}
	}
	if !found {
		t.Error("expected zext instructions from type unification")
	}
}

func TestCompoundAssignEvaluatesIndexOnce(t *testing.T) {
	src := `
global u32 a[16];
global u32 n;
void handle() {
	a[n & 15] += 7;
	pkt_send(0);
}
`
	m, err := Compile("compound", src)
	if err != nil {
		t.Fatal(err)
	}
	// The index expression (n & 15) loads global n exactly once.
	loads := 0
	for _, b := range m.Handler().Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpGLoad && in.Global == "n" {
				loads++
			}
		}
	}
	if loads != 1 {
		t.Errorf("index evaluated %d times, want 1", loads)
	}
}

func TestDeadCodeAfterReturnDropped(t *testing.T) {
	src := `
void handle() {
	pkt_drop();
	return;
	pkt_send(0);
}
`
	m, err := Compile("dead", src)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range m.Handler().Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpCall && in.Callee == "pkt_send" {
				t.Error("dead pkt_send survived")
			}
		}
	}
}
