package analysis_test

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"clara/internal/analysis"
	"clara/internal/click"
	"clara/internal/ir"
	"clara/internal/lang"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files from current output")

// The three seeded offender NFs of the acceptance criteria: an unbounded
// loop, a float-path API call, and an oversized state table. Each is a
// plausible "straight host port" an operator might try to offload.
var lintFixtures = []struct {
	name string
	src  string
}{
	{"spinwait", `// spinwait: busy-polls until a device flag clears.
global u32 busy;

void handle() {
	u32 spins = 0;
	while (true) {
		spins = spins + 1;
	}
}
`},
	{"ratemon", `// ratemon: EWMA rate estimate per packet (host computes in doubles).
void handle() {
	u32 rate = ewma_rate(u32(pkt_len()));
	if (rate > 1000000) { pkt_drop(); return; }
	pkt_send(0);
}
`},
	{"conntrack_huge", `// conntrack_huge: straight host port with an oversized flow table.
map<u64,u64> conn[80000000];

void handle() {
	u64 key = (u64(pkt_ip_src()) << 32) | u64(pkt_ip_dst());
	if (!map_contains(conn, key)) {
		map_insert(conn, key, 0);
	}
	pkt_send(0);
}
`},
}

func lintFixture(t *testing.T, name string) []analysis.Diagnostic {
	t.Helper()
	for _, fx := range lintFixtures {
		if fx.name == name {
			ds, err := analysis.LintSource(fx.name, fx.src, analysis.DefaultConfig())
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return ds
		}
	}
	t.Fatalf("no fixture %q", name)
	return nil
}

// TestLintFixtures pins rule IDs, severities, and source positions for the
// three seeded offenders.
func TestLintFixtures(t *testing.T) {
	cases := []struct {
		fixture string
		rule    string
		sev     analysis.Severity
		line    int
	}{
		{"spinwait", analysis.RuleLoopUnbounded, analysis.SevError, 6},
		{"ratemon", analysis.RuleFloatOp, analysis.SevError, 3},
		{"conntrack_huge", analysis.RuleStateOversize, analysis.SevError, 2},
	}
	for _, tc := range cases {
		ds := lintFixture(t, tc.fixture)
		found := false
		for _, d := range ds {
			if d.Rule != tc.rule {
				continue
			}
			found = true
			if d.Severity != tc.sev {
				t.Errorf("%s/%s: severity %v, want %v", tc.fixture, tc.rule, d.Severity, tc.sev)
			}
			if d.Line != tc.line {
				t.Errorf("%s/%s: line %d, want %d", tc.fixture, tc.rule, d.Line, tc.line)
			}
			if d.Col <= 0 {
				t.Errorf("%s/%s: missing column", tc.fixture, tc.rule)
			}
			if d.Elem != tc.fixture {
				t.Errorf("%s/%s: elem %q", tc.fixture, tc.rule, d.Elem)
			}
		}
		if !found {
			t.Errorf("%s: rule %s not reported; got %v", tc.fixture, tc.rule, ds)
		}
	}
}

// TestLintLibraryClean: every stock click element passes the linter with
// no errors or warnings (info-level porting notes are expected and fine).
func TestLintLibraryClean(t *testing.T) {
	cfg := analysis.DefaultConfig()
	sawInfo := false
	for _, e := range click.Library() {
		ds, err := analysis.LintSource(e.Name, e.Src, cfg)
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		if s := analysis.Summarize(ds); s.Errors+s.Warnings > 0 {
			t.Errorf("%s: not lint-clean:\n%s", e.Name, analysis.Render(ds))
		}
		if s := analysis.Summarize(ds); s.Infos > 0 {
			sawInfo = true
		}
	}
	if !sawInfo {
		t.Error("no element produced a reverse-porting note; the linter is not seeing calls")
	}
}

// TestLintJSONRoundTrip: diagnostics survive encoding/json both ways,
// including the textual severity.
func TestLintJSONRoundTrip(t *testing.T) {
	for _, fx := range lintFixtures {
		ds, err := analysis.LintSource(fx.name, fx.src, analysis.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		blob, err := json.Marshal(ds)
		if err != nil {
			t.Fatal(err)
		}
		var back []analysis.Diagnostic
		if err := json.Unmarshal(blob, &back); err != nil {
			t.Fatalf("%s: %v\n%s", fx.name, err, blob)
		}
		if !reflect.DeepEqual(ds, back) {
			t.Errorf("%s: round trip drifted:\n%v\n%v", fx.name, ds, back)
		}
	}
	var sev analysis.Severity
	if err := sev.UnmarshalText([]byte("fatal")); err == nil {
		t.Error("unknown severity accepted")
	}
}

func TestLintRecursion(t *testing.T) {
	direct := `
u32 fact(u32 n) {
	if (n < 2) { return 1; }
	return n * fact(n - 1);
}
void handle() {
	pkt_send(fact(u32(pkt_len())));
}
`
	mutual := `
u32 even(u32 n) {
	if (n == 0) { return 1; }
	return odd(n - 1);
}
u32 odd(u32 n) {
	if (n == 0) { return 0; }
	return even(n - 1);
}
void handle() {
	pkt_send(even(u32(pkt_len())));
}
`
	for name, src := range map[string]string{"direct": direct, "mutual": mutual} {
		ds, err := analysis.LintSource(name, src, analysis.DefaultConfig())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		found := false
		for _, d := range ds {
			if d.Rule == analysis.RuleRecursion && d.Severity == analysis.SevError {
				found = true
				if d.Line <= 0 {
					t.Errorf("%s: recursion diagnostic has no position", name)
				}
			}
		}
		if !found {
			t.Errorf("%s: recursion not reported: %v", name, ds)
		}
	}
}

func TestLintDeadStore(t *testing.T) {
	src := `
void handle() {
	u32 x = u32(pkt_len()) + 1;
	x = x + 2;
	pkt_send(0);
}
`
	ds, err := analysis.LintSource("deadstore", src, analysis.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, d := range ds {
		if d.Rule == analysis.RuleDeadStore {
			found = true
			if d.Line != 4 {
				t.Errorf("dead store at line %d, want 4", d.Line)
			}
		}
	}
	if !found {
		t.Errorf("dead store not reported: %v", ds)
	}
}

// TestLintDeadStoreConstSuppressed: declaration-default constant stores
// (which -O0-style lowering emits everywhere) are never flagged.
func TestLintDeadStoreConstSuppressed(t *testing.T) {
	src := `
void handle() {
	u32 unused = 0;
	pkt_send(0);
}
`
	ds, err := analysis.LintSource("constinit", src, analysis.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range ds {
		if d.Rule == analysis.RuleDeadStore {
			t.Errorf("constant initializer flagged as dead store: %v", d)
		}
	}
}

// TestLintUninitRead: possible in hand-built IR only; the frontend
// zero-initializes every declaration.
func TestLintUninitRead(t *testing.T) {
	b := ir.NewBuilder("handle", []ir.Param{{Name: "p", Ty: ir.U32}}, ir.U32)
	s0 := b.NewSlot()
	entry := b.Current()
	cond := b.ICmp(ir.PredULT, ir.ParamVal(0, ir.U32), ir.ConstVal(5, ir.U32))
	then := b.NewBlock("then")
	exit := b.NewBlock("exit")
	b.SetBlock(entry)
	b.CondBr(cond, then, exit)
	b.SetBlock(then)
	b.LStore(s0, ir.ConstVal(7, ir.U32))
	b.Br(exit)
	b.SetBlock(exit)
	r := b.LLoad(s0, ir.U32)
	b.Ret(&r)

	m := &ir.Module{Name: "handbuilt", Funcs: []*ir.Func{b.F}}
	ds := analysis.LintModule(m, analysis.DefaultConfig())
	found := false
	for _, d := range ds {
		if d.Rule == analysis.RuleUninitRead {
			found = true
		}
	}
	if !found {
		t.Errorf("uninitialized read not reported: %v", ds)
	}
}

// TestLintVarBoundLoop: a loop bounded only by an uncapped u32 input
// exceeds the trip budget and warns; the same loop bounded by a u16 input
// fits the budget and is clean.
func TestLintVarBoundLoop(t *testing.T) {
	over := `
void handle() {
	u32 n = pkt_ip_src();
	u32 acc = 0;
	for (u32 i = 0; i < n; i += 1) { acc = acc + i; }
	pkt_send(acc);
}
`
	under := `
void handle() {
	u32 n = u32(pkt_payload_len());
	u32 acc = 0;
	for (u32 i = 0; i < n; i += 1) { acc = acc + i; }
	pkt_send(acc);
}
`
	ds, err := analysis.LintSource("overbudget", over, analysis.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, d := range ds {
		if d.Rule == analysis.RuleLoopVarBound && d.Severity == analysis.SevWarning {
			found = true
			if d.Line != 5 {
				t.Errorf("loop warning at line %d, want 5", d.Line)
			}
		}
	}
	if !found {
		t.Errorf("over-budget loop not reported: %v", ds)
	}

	ds, err = analysis.LintSource("underbudget", under, analysis.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range ds {
		if d.Rule == analysis.RuleLoopVarBound || d.Rule == analysis.RuleLoopUnbounded {
			t.Errorf("u16-bounded loop (max 65535) wrongly flagged: %v", d)
		}
	}
}

// TestLintNETripBound: `i != N` with a unit step ends at N only if every
// start is at or below N. Starting anywhere in 0..127, a start of 51..127
// wraps through ~2^32 iterations, so the loop cannot be bounded; starting
// in 0..31 it runs at most 50.
func TestLintNETripBound(t *testing.T) {
	loop := func(mask int) string {
		return fmt.Sprintf(`
void handle() {
	for (u32 i = u32(pkt_ip_proto()) & %d; i != 50; i += 1) { }
	pkt_send(0);
}
`, mask)
	}
	ds, err := analysis.LintSource("wraps", loop(127), analysis.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, d := range ds {
		found = found || d.Rule == analysis.RuleLoopVarBound && d.Line == 3
	}
	if !found {
		t.Errorf("a != loop whose start can exceed its bound was not flagged: %v", ds)
	}
	m, err := lang.Compile("below", loop(31))
	if err != nil {
		t.Fatal(err)
	}
	c, ri := handlerRanges(m)
	if tc := ri.InferTripCount(c.NaturalLoops()[0]); !tc.Bounded || tc.Max != 50 {
		t.Errorf("start in 0..31, i != 50: trip = %+v, want bounded max 50", tc)
	}
}

// TestLintWrappingInductionBound: a u8 counter stepping by 2 below 255
// reaches 254 and wraps to 0, and `i <= n` with a u8 n of 255 never fails;
// neither loop may be bounded. Stopping below 250 by 2 ends at 248 + 2 =
// 250 without wrapping, so that loop stays bounded at 125 trips.
func TestLintWrappingInductionBound(t *testing.T) {
	wrapping := map[string]string{
		"step2": "void handle() {\n\tfor (u8 i = 0; i < 255; i += 2) { }\n\tpkt_send(0);\n}\n",
		"le255": "void handle() {\n\tu8 n = u8(pkt_ip_proto());\n\tfor (u8 i = 0; i <= n; i += 1) { }\n\tpkt_send(0);\n}\n",
	}
	for name, src := range wrapping {
		ds, err := analysis.LintSource(name, src, analysis.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, d := range ds {
			found = found || d.Rule == analysis.RuleLoopVarBound
		}
		if !found {
			t.Errorf("%s: a wrapping u8 counter was bounded: %v", name, ds)
		}
	}
	m, err := lang.Compile("step2ok", "void handle() {\n\tfor (u8 i = 0; i < 250; i += 2) { }\n\tpkt_send(0);\n}\n")
	if err != nil {
		t.Fatal(err)
	}
	c, ri := handlerRanges(m)
	if tc := ri.InferTripCount(c.NaturalLoops()[0]); !tc.Bounded || tc.Max != 125 {
		t.Errorf("u8 i < 250 by 2: trip = %+v, want bounded max 125", tc)
	}
}

// TestLintStateWarningTier: state bigger than on-chip SRAM but small
// enough for EMEM warns rather than errors.
func TestLintStateWarningTier(t *testing.T) {
	src := `
global u8 flowtab[8388608];

void handle() {
	flowtab[pkt_ip_src() & 8388607] = 1;
	pkt_send(0);
}
`
	ds, err := analysis.LintSource("ememtab", src, analysis.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, d := range ds {
		if d.Rule == analysis.RuleStateOversize {
			found = true
			if d.Severity != analysis.SevWarning {
				t.Errorf("8 MB table severity %v, want warning", d.Severity)
			}
		}
	}
	if !found {
		t.Errorf("EMEM-tier table not reported: %v", ds)
	}
}

// TestLintGolden pins the rendered diagnostics of every fixture; run with
// -update to regenerate after intentional changes.
func TestLintGolden(t *testing.T) {
	for _, fx := range lintFixtures {
		fx := fx
		t.Run(fx.name, func(t *testing.T) {
			ds, err := analysis.LintSource(fx.name, fx.src, analysis.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			got := analysis.Render(ds)
			path := filepath.Join("testdata", "lint_"+fx.name+".golden")
			if *updateGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("lint output drifted from %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
			}
		})
	}
}

// TestDiagnosticOrdering: diagnostics order by source position first
// (line, col), then rule, regardless of severity or emitting pass.
func TestDiagnosticOrdering(t *testing.T) {
	ds := []analysis.Diagnostic{
		{Rule: "b", Severity: analysis.SevInfo, Line: 1},
		{Rule: "a", Severity: analysis.SevError, Line: 9},
		{Rule: "c", Severity: analysis.SevWarning, Line: 2},
		{Rule: "d", Severity: analysis.SevError, Line: 2},
	}
	analysis.SortDiagnostics(ds)
	want := []string{"b", "c", "d", "a"}
	for i, r := range want {
		if ds[i].Rule != r {
			t.Fatalf("order %v, want %v", ds, want)
		}
	}
}

// TestDiagnosticDedup: the same rule+position+message emitted by two
// passes collapses to one finding, and the richer copy's cause survives.
func TestDiagnosticDedup(t *testing.T) {
	ds := []analysis.Diagnostic{
		{Rule: "r", Fn: "handle", Line: 3, Col: 1, Msg: "m"},
		{Rule: "r", Fn: "handle", Line: 3, Col: 1, Msg: "m", Cause: "payload-dependent: derives from pkt_payload"},
		{Rule: "r", Fn: "handle", Line: 4, Col: 1, Msg: "m"},
	}
	out := analysis.NormalizeDiagnostics(ds)
	if len(out) != 2 {
		t.Fatalf("dedup kept %d diagnostics, want 2: %v", len(out), out)
	}
	if out[0].Cause == "" {
		t.Fatalf("dedup dropped the richer duplicate's cause: %+v", out[0])
	}
}
