package analysis_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"clara/internal/analysis"
	"clara/internal/click"
	"clara/internal/interp"
	"clara/internal/ir"
	"clara/internal/lang"
	"clara/internal/traffic"
)

// lowerSrc parses and lowers NFC source.
func lowerSrc(t testing.TB, name, src string) *ir.Module {
	t.Helper()
	file, err := lang.Parse(name, src)
	if err != nil {
		t.Fatalf("parse %s: %v", name, err)
	}
	m, err := lang.Lower(file)
	if err != nil {
		t.Fatalf("lower %s: %v", name, err)
	}
	return m
}

// ---------------------------------------------------------------------------
// The per-module facts.

func TestCallGraphEmptyAndSingle(t *testing.T) {
	// An empty handler (just a return) must survive every pass.
	h := ir.NewBuilder(ir.HandlerName, ir.Void)
	h.Ret(nil)
	m := &ir.Module{Name: "empty", Func: h.F}
	if err := ir.Verify(m); err != nil {
		t.Fatal(err)
	}
	fx := analysis.NewFacts(m)
	analysis.ComputeTaint(fx)
	analysis.ComputeRanges(fx)
	analysis.ComputeFreq(fx)
	if ds := analysis.LintModule(m, analysis.DefaultConfig()); len(ds) != 0 {
		t.Errorf("empty handler linted %v", ds)
	}
	if _, n := analysis.SimplifyModule(m); n != 0 {
		t.Errorf("SimplifyModule rewrote an empty handler %d times", n)
	}
	sp := analysis.ComputeStateProfile(m)
	if len(sp.Loops) != 0 || len(sp.Structs) != 0 {
		t.Errorf("empty module produced a non-empty profile: %+v", sp)
	}
	if sp.HeaderOnlyShare() != 1 {
		t.Errorf("stateless element should be fully header-only, got %v", sp.HeaderOnlyShare())
	}
}

// ---------------------------------------------------------------------------
// Taint.

func TestTaintClassifiesLoops(t *testing.T) {
	cases := []struct {
		name    string
		src     string
		payload bool
		cause   string
	}{
		{"payload_bound", `void handle() {
	for (u32 i = 0; i < pkt_payload_len(); i += 1) { }
	pkt_send(0);
}`, true, "pkt_payload_len"},
		{"header_bound", `void handle() {
	for (u32 i = 0; i < pkt_ip_hl(); i += 1) { }
	pkt_send(0);
}`, false, "pkt_ip_hl"},
		{"payload_byte_bound", `void handle() {
	u32 n = u32(pkt_payload(0));
	for (u32 i = 0; i < n; i += 1) { }
	pkt_send(0);
}`, true, "pkt_payload"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := lowerSrc(t, tc.name, tc.src)
			sp := analysis.ComputeStateProfile(m)
			if len(sp.Loops) != 1 {
				t.Fatalf("want 1 loop, got %d: %+v", len(sp.Loops), sp.Loops)
			}
			l := sp.Loops[0]
			if l.PayloadDependent != tc.payload {
				t.Errorf("PayloadDependent = %v, want %v (%+v)", l.PayloadDependent, tc.payload, l)
			}
			if !strings.Contains(l.Cause, tc.cause) {
				t.Errorf("cause %q does not name source %q", l.Cause, tc.cause)
			}
		})
	}
}

func TestTaintClassifiesStateKeys(t *testing.T) {
	src := `map<u64,u64> flows[1024];
map<u64,u64> deep[1024];
global u32 stash;

void handle() {
	u64 hkey = (u64(pkt_ip_src()) << 32) | u64(pkt_ip_dst());
	map_insert(flows, hkey, 1);
	stash = u32(pkt_payload(0));
	u64 pkey = u64(stash);
	map_insert(deep, pkey, 1);
	pkt_send(0);
}`
	m := lowerSrc(t, "keyclass", src)
	sp := analysis.ComputeStateProfile(m)
	byName := map[string]analysis.StructProfile{}
	for _, s := range sp.Structs {
		byName[s.Name] = s
	}
	if s := byName["flows"]; s.PayloadKeyed {
		t.Errorf("header-keyed map classified payload-keyed: %+v", s)
	}
	if s := byName["deep"]; !s.PayloadKeyed {
		// The payload byte launders through the `stash` global; the
		// module-level stored-value taint must carry it.
		t.Errorf("payload-keyed map (via global laundering) classified header-only: %+v", s)
	}
	if s := byName["deep"]; !strings.Contains(s.Cause, "pkt_payload") {
		t.Errorf("cause %q does not name pkt_payload", s.Cause)
	}
	if sp.HeaderOnlyShare() >= 1 {
		t.Errorf("HeaderOnlyShare should drop below 1 with a payload-keyed map, got %v", sp.HeaderOnlyShare())
	}
}

// ---------------------------------------------------------------------------
// Constant facts of the interval analysis, and simplification.

func TestSCCPConstBranchAndDeadCode(t *testing.T) {
	src := `global u32 hits;

void handle() {
	u32 mode = 2;
	u32 twice = mode * 3;
	if (twice == 6) {
		hits = hits + 1;
	} else {
		hits = hits + 100;
	}
	pkt_send(0);
}`
	ds, err := analysis.LintSource("constbr", src, analysis.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var haveConst, haveDead bool
	for _, d := range ds {
		switch d.Rule {
		case analysis.RuleConstBranch:
			haveConst = true
			if !strings.Contains(d.Msg, "always true") {
				t.Errorf("const-branch msg should state the folded truth: %q", d.Msg)
			}
		case analysis.RuleDeadCode:
			haveDead = true
		}
	}
	if !haveConst || !haveDead {
		t.Fatalf("want const-branch + dead-code, got %v", ds)
	}

	m := lowerSrc(t, "constbr", src)
	before := len(m.Handler().Blocks)
	sm, changes := analysis.SimplifyModule(m)
	if changes == 0 {
		t.Fatal("SimplifyModule reported no changes on a constant branch")
	}
	if err := ir.Verify(sm); err != nil {
		t.Fatalf("simplified module fails verification: %v", err)
	}
	if got := len(sm.Handler().Blocks); got >= before {
		t.Errorf("dead branch not removed: %d blocks before, %d after", before, got)
	}
	for _, b := range sm.Handler().Blocks {
		if term := b.Terminator(); term != nil && term.Op == ir.OpCondBr {
			if term.Args[0].Kind == ir.VConst {
				t.Errorf("constant CondBr survived simplification: %v", term)
			}
		}
	}
	// The original module must be untouched.
	if len(m.Handler().Blocks) != before {
		t.Errorf("SimplifyModule mutated its input")
	}
}

// TestSimplifyEquivalence runs the original and simplified modules of every
// library element and of the 300 unique-src programs over the same traffic
// and demands identical externally visible behavior: the exact sequence of
// framework API calls and stateful accesses, per packet. It is the
// soundness oracle for every fact SimplifyModule applies.
func TestSimplifyEquivalence(t *testing.T) {
	for _, e := range click.Library() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			checkSimplifyEquivalent(t, e.MustModule(), interp.Config{LPMTable: e.Routes}, e.Setup)
		})
	}
	t.Run("unique-src", func(t *testing.T) {
		for _, m := range uniqueSrcModules(t) {
			checkSimplifyEquivalent(t, m, interp.Config{}, nil)
		}
	})
}

// checkSimplifyEquivalent runs 96 packets through mod and its simplified
// copy and compares their state and API hook traces.
func checkSimplifyEquivalent(t *testing.T, mod *ir.Module, cfg interp.Config, setup func(*interp.Machine) error) {
	t.Helper()
	const packets = 96
	simp, _ := analysis.SimplifyModule(mod)
	if err := ir.Verify(simp); err != nil {
		t.Fatalf("simplified %s fails verification: %v", mod.Name, err)
	}
	run := func(mod *ir.Module) []string {
		m, err := interp.New(mod, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if setup != nil {
			if err := setup(m); err != nil {
				t.Fatal(err)
			}
		}
		var events []string
		m.SetHooks(interp.Hooks{
			OnState: func(global int, store bool, addr uint64, block int) {
				events = append(events, "state", mod.Globals[global].Name, boolStr(store), uintStr(addr))
			},
			OnAPI: func(api ir.API, global int, probes int, addr uint64, block int) {
				name := ""
				if global >= 0 {
					name = mod.Globals[global].Name
				}
				events = append(events, "api", ir.APIs[api].Name, name, uintStr(addr))
			},
		})
		gen, err := traffic.NewGenerator(traffic.MediumMix)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < packets; i++ {
			p := gen.Next()
			if err := m.RunPacket(&p); err != nil {
				t.Fatalf("%s packet %d: %v", mod.Name, i, err)
			}
		}
		return events
	}
	a, b := run(mod), run(simp)
	if len(a) != len(b) {
		t.Fatalf("%s: event count diverged: %d orig vs %d simplified", mod.Name, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s: event %d diverged: %q vs %q", mod.Name, i, a[i], b[i])
		}
	}
}

func boolStr(b bool) string {
	if b {
		return "w"
	}
	return "r"
}

func uintStr(v uint64) string {
	const digits = "0123456789"
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = digits[v%10]
		v /= 10
	}
	return string(buf[i:])
}

// ---------------------------------------------------------------------------
// Frequency estimation.

func TestFreqWeightsLoopsAndBranches(t *testing.T) {
	src := `global u32 once;
map<u64,u64> hot[256];
map<u64,u64> cold[256];

void handle() {
	once = once + 1;
	for (u32 i = 0; i < 8; i += 1) {
		map_insert(hot, u64(i), 1);
	}
	if (pkt_len() > 64) {
		map_insert(cold, 1, 1);
	}
	pkt_send(0);
}`
	m := lowerSrc(t, "freq", src)
	sp := analysis.ComputeStateProfile(m)
	w := sp.GlobalFreq()
	// The loop body runs ~8x per packet; the scalar twice (load+store);
	// the branch-guarded map ~0.5x.
	if !(w["hot"] > w["once"] && w["once"] > w["cold"]) {
		t.Errorf("weight order wrong: hot=%v once=%v cold=%v", w["hot"], w["once"], w["cold"])
	}
	if w["hot"] < 6 || w["hot"] > 10 {
		t.Errorf("loop-scaled weight %v, want ~8", w["hot"])
	}
	if w["cold"] < 0.25 || w["cold"] > 0.75 {
		t.Errorf("branch-split weight %v, want ~0.5", w["cold"])
	}
}

func TestFreqInfeasibleBranchPruned(t *testing.T) {
	src := `map<u64,u64> never[256];

void handle() {
	u32 x = 3;
	if (x > 7) {
		map_insert(never, 1, 1);
	}
	pkt_send(0);
}`
	m := lowerSrc(t, "infeasible", src)
	sp := analysis.ComputeStateProfile(m)
	for _, s := range sp.Structs {
		if s.Name == "never" && s.Weight != 0 {
			t.Errorf("infeasible branch still carries weight %v", s.Weight)
		}
	}
}

// TestSubroutineFactsInline: the frontend inlines every subroutine into
// the handler, so the facts a subroutine contributes (its accesses'
// weight, the taint of its result, the constant it returns) reach the
// analysis through the one function it lowers to.
func TestSubroutineFactsInline(t *testing.T) {
	compile := func(name, src string) *ir.Module {
		t.Helper()
		m, err := lang.Compile(name, src)
		if err != nil {
			t.Fatalf("compile %s: %v", name, err)
		}
		return m
	}

	// A helper called from a 4-trip loop: its load and store of ctr run
	// 4 times each.
	m := compile("bump", `global u32 ctr;
void bump() { ctr = ctr + 1; }
void handle() {
	for (u32 i = 0; i < 4; i += 1) { bump(); }
	pkt_send(0);
}`)
	if w := analysis.ComputeStateProfile(m).GlobalFreq()["ctr"]; w != 8 {
		t.Errorf("ctr bumped in a 4-trip loop has weight %v, want 8", w)
	}

	// Payload taint passes through a helper's parameter and return.
	m = compile("id", `u32 id(u32 x) { return x; }
void handle() {
	for (u32 i = 0; i < id(pkt_payload_len()); i += 1) { }
	pkt_send(0);
}`)
	sp := analysis.ComputeStateProfile(m)
	if len(sp.Loops) != 1 {
		t.Fatalf("want 1 loop, got %+v", sp.Loops)
	}
	if l := sp.Loops[0]; !l.PayloadDependent || !strings.Contains(l.Cause, "pkt_payload_len") {
		t.Errorf("loop bounded by id(pkt_payload_len()) = %+v, want payload-dependent from pkt_payload_len", l)
	}

	// A helper's constant result decides the caller's branch.
	ds, err := analysis.LintSource("twice", `global u32 hits;
u32 twice(u32 x) { return x * 2; }
void handle() {
	if (twice(3) == 6) { hits = hits + 1; } else { hits = hits + 100; }
	pkt_send(0);
}`, analysis.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	rules := map[string]bool{}
	for _, d := range ds {
		rules[d.Rule] = true
	}
	if !rules[analysis.RuleConstBranch] || !rules[analysis.RuleDeadCode] {
		t.Errorf("twice(3) == 6: want const-branch and dead-code, got %v", ds)
	}
}

// ---------------------------------------------------------------------------
// Golden fixtures over the paper's 17 elements: every loop and state
// access classified (taint_*.golden), every structure weighted
// (freq_*.golden).

func TestStateProfileGoldens(t *testing.T) {
	for _, name := range click.Table2Order {
		name := name
		t.Run(name, func(t *testing.T) {
			e := click.Get(name)
			if e == nil {
				t.Fatalf("element %q missing", name)
			}
			sp := analysis.ComputeStateProfile(e.MustModule())
			checkGolden(t, filepath.Join("testdata", "taint_"+name+".golden"), sp.RenderTaint())
			checkGolden(t, filepath.Join("testdata", "freq_"+name+".golden"), sp.RenderFreq())
		})
	}
}

func checkGolden(t *testing.T, path, got string) {
	t.Helper()
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run `make update-golden`): %v", err)
	}
	if string(want) != got {
		t.Errorf("output drifted from %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

// ---------------------------------------------------------------------------
// Fuzzing.

// FuzzTaint drives the analysis (intervals, taint, frequency, simplify) on
// arbitrary source. Contract: no panics, no
// hangs, a well-formed slot SSA (CheckSSA) before and after simplifying,
// deterministic classification across repeated runs, and the simplified
// module always verifies and lints with no const-branch or dead-code
// finding: the rewrite and the rules share one predicate.
func FuzzTaint(f *testing.F) {
	for _, e := range click.Library() {
		f.Add(e.Src)
	}
	f.Add("void handle() { for (u32 i = 0; i < pkt_payload_len(); i += 1) {} pkt_send(0); }")
	f.Add("global u32 s;\nvoid handle() { s = u32(pkt_payload(0)); if (s > 3) { pkt_drop(); return; } pkt_send(0); }")
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<16 {
			return
		}
		file, err := lang.Parse("fuzz", src)
		if err != nil {
			return
		}
		m, err := lang.Lower(file)
		if err != nil {
			return
		}
		if err := analysis.CheckSSA(m); err != nil {
			t.Fatalf("slot SSA ill-formed: %v", err)
		}
		sp1 := analysis.ComputeStateProfile(m)
		sp2 := analysis.ComputeStateProfile(m)
		if sp1.Render() != sp2.Render() {
			t.Fatalf("profile not deterministic:\n%s\nvs\n%s", sp1.Render(), sp2.Render())
		}
		if s := sp1.HeaderOnlyShare(); s < 0 || s > 1 {
			t.Fatalf("HeaderOnlyShare out of range: %v", s)
		}
		sm, _ := analysis.SimplifyModule(m)
		if err := ir.Verify(sm); err != nil {
			t.Fatalf("simplified module fails verify: %v\n%s", err, sm)
		}
		if err := analysis.CheckSSA(sm); err != nil {
			t.Fatalf("slot SSA of the simplified module ill-formed: %v", err)
		}
		for _, d := range analysis.LintModule(sm, analysis.DefaultConfig()) {
			if d.Rule == analysis.RuleConstBranch || d.Rule == analysis.RuleDeadCode {
				t.Fatalf("simplified module still lints %v\n%s", d, sm)
			}
		}
	})
}
