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

// lowerSrc parses and lowers NFC source for the interprocedural tests.
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
// Call graph.

// buildMultiFn hand-builds a module exercising shapes the frontend never
// emits (it inlines): a call chain, a mutually recursive pair, and a
// self-recursive function.
//
//	handle -> chain -> leaf
//	handle -> mutA <-> mutB
//	handle -> selfrec -> selfrec
func buildMultiFn(t *testing.T) *ir.Module {
	t.Helper()
	u32 := ir.U32
	param := []ir.Param{{Name: "x", Ty: u32}}

	leaf := ir.NewBuilder("leaf", param, u32)
	v := ir.ParamVal(0, u32)
	leaf.Ret(&v)

	chain := ir.NewBuilder("chain", param, u32)
	cv := chain.Call("leaf", "", u32, ir.ParamVal(0, u32))
	chain.Ret(&cv)

	mutA := ir.NewBuilder("mutA", param, u32)
	av := mutA.Call("mutB", "", u32, ir.ParamVal(0, u32))
	mutA.Ret(&av)

	mutB := ir.NewBuilder("mutB", param, u32)
	bodyB := mutB.Current()
	_ = bodyB
	cond := mutB.ICmp(ir.PredUGT, ir.ParamVal(0, u32), ir.ConstVal(0, u32))
	thenB := mutB.NewBlock("then")
	elseB := mutB.NewBlock("else")
	mutB.SetBlock(mutB.F.Blocks[0])
	mutB.CondBr(cond, thenB, elseB)
	mutB.SetBlock(thenB)
	dec := mutB.Bin(ir.OpSub, u32, ir.ParamVal(0, u32), ir.ConstVal(1, u32))
	rv := mutB.Call("mutA", "", u32, dec)
	mutB.Ret(&rv)
	mutB.SetBlock(elseB)
	zero := ir.ConstVal(0, u32)
	mutB.Ret(&zero)

	selfrec := ir.NewBuilder("selfrec", param, u32)
	sv := selfrec.Call("selfrec", "", u32, ir.ParamVal(0, u32))
	selfrec.Ret(&sv)

	h := ir.NewBuilder(ir.HandlerName, nil, ir.Void)
	pl := h.Call("pkt_payload_len", "", u32)
	h.Call("chain", "", u32, pl)
	h.Call("mutA", "", u32, ir.ConstVal(3, u32))
	h.Call("selfrec", "", u32, pl)
	h.Ret(nil)

	m := &ir.Module{Name: "multifn", Funcs: []*ir.Func{
		h.F, chain.F, leaf.F, mutA.F, mutB.F, selfrec.F,
	}}
	if err := ir.Verify(m); err != nil {
		t.Fatalf("verify: %v", err)
	}
	return m
}

func TestCallGraphSCC(t *testing.T) {
	m := buildMultiFn(t)
	cg := analysis.BuildCallGraph(m)

	idx := func(name string) int {
		i := cg.Node(name)
		if i < 0 {
			t.Fatalf("missing node %q", name)
		}
		return i
	}
	// Reverse topological numbering: callees' SCCs before callers'.
	if !(cg.SCCOf(idx("leaf")) < cg.SCCOf(idx("chain"))) {
		t.Errorf("leaf SCC %d should precede chain SCC %d", cg.SCCOf(idx("leaf")), cg.SCCOf(idx("chain")))
	}
	if !(cg.SCCOf(idx("chain")) < cg.SCCOf(idx("handle"))) {
		t.Errorf("chain SCC should precede handle SCC")
	}
	if cg.SCCOf(idx("mutA")) != cg.SCCOf(idx("mutB")) {
		t.Errorf("mutually recursive pair split across SCCs")
	}
	// A node is recursive when its SCC has several members or it calls
	// itself.
	recursive := func(i int) bool {
		self := false
		for _, j := range cg.Callees[i] {
			self = self || j == i
		}
		return self || len(cg.SCCs()[cg.SCCOf(i)]) > 1
	}
	for _, n := range []string{"mutA", "mutB", "selfrec"} {
		if !recursive(idx(n)) {
			t.Errorf("%s not in a call cycle", n)
		}
	}
	for _, n := range []string{"handle", "chain", "leaf"} {
		if recursive(idx(n)) {
			t.Errorf("%s wrongly in a call cycle", n)
		}
	}
	// Intrinsic calls are leaves, not nodes.
	if cg.Node("pkt_payload_len") != -1 {
		t.Errorf("intrinsic appeared as a call-graph node")
	}
}

func TestCallGraphEmptyAndSingle(t *testing.T) {
	// An empty function body (just a return) must survive every pass.
	h := ir.NewBuilder(ir.HandlerName, nil, ir.Void)
	h.Ret(nil)
	m := &ir.Module{Name: "empty", Funcs: []*ir.Func{h.F}}
	if err := ir.Verify(m); err != nil {
		t.Fatal(err)
	}
	cg := analysis.BuildCallGraph(m)
	if len(cg.SCCs()) != 1 {
		t.Fatalf("one function should give one SCC, got %d", len(cg.SCCs()))
	}
	analysis.ComputeTaint(cg)
	analysis.ComputeRanges(cg)
	analysis.ComputeFreq(cg)
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

func TestTaintInterprocedural(t *testing.T) {
	// Hand-built: handle passes a payload-derived value through a helper
	// and bounds a loop with the result. The classification must cross
	// the call (param taint in, return taint out) — including through the
	// self-recursive echo helper.
	u32 := ir.U32
	id := ir.NewBuilder("id", []ir.Param{{Name: "x", Ty: u32}}, u32)
	v := ir.ParamVal(0, u32)
	id.Ret(&v)

	// Self-recursive with a base case that returns the parameter: the
	// payload taint must survive the SCC fixpoint through both paths.
	echo := ir.NewBuilder("echo", []ir.Param{{Name: "x", Ty: u32}}, u32)
	ec := echo.ICmp(ir.PredUGT, ir.ParamVal(0, u32), ir.ConstVal(100, u32))
	eRec := echo.NewBlock("rec")
	eBase := echo.NewBlock("base")
	echo.SetBlock(echo.F.Blocks[0])
	echo.CondBr(ec, eRec, eBase)
	echo.SetBlock(eRec)
	ev := echo.Call("echo", "", u32, ir.ParamVal(0, u32))
	echo.Ret(&ev)
	echo.SetBlock(eBase)
	ebv := ir.ParamVal(0, u32)
	echo.Ret(&ebv)

	h := ir.NewBuilder(ir.HandlerName, nil, ir.Void)
	slot := h.NewSlot()
	pl := h.Call("pkt_payload_len", "", u32)
	bound := h.Call("id", "", u32, pl)
	h.Call("echo", "", u32, pl)
	h.LStore(slot, ir.ConstVal(0, u32))
	head := h.NewBlock("head")
	body := h.NewBlock("body")
	exit := h.NewBlock("exit")
	h.SetBlock(h.F.Blocks[0])
	h.Br(head)
	h.SetBlock(head)
	iv := h.LLoad(slot, u32)
	cond := h.ICmp(ir.PredULT, iv, bound)
	h.CondBr(cond, body, exit)
	h.SetBlock(body)
	iv2 := h.LLoad(slot, u32)
	h.LStore(slot, h.Bin(ir.OpAdd, u32, iv2, ir.ConstVal(1, u32)))
	h.Br(head)
	h.SetBlock(exit)
	h.Ret(nil)

	m := &ir.Module{Name: "interproc", Funcs: []*ir.Func{h.F, id.F, echo.F}}
	if err := ir.Verify(m); err != nil {
		t.Fatal(err)
	}
	cg := analysis.BuildCallGraph(m)
	ti := analysis.ComputeTaint(cg)
	lt, ok := ti.LoopClass(ir.HandlerName, head.Index)
	if !ok {
		t.Fatalf("loop at head b%d not classified", head.Index)
	}
	if !lt.PayloadDependent() {
		t.Errorf("loop bounded by id(pkt_payload_len()) should be payload-dependent: %+v", lt)
	}
	// The self-recursive echo must converge with a payload-tainted return.
	if tt := ti.ValueTaint(ir.HandlerName, 2); !tt.Has(analysis.TaintPayload) {
		t.Errorf("echo(payload) return taint = %v, want payload", tt)
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

func TestSCCPInterproceduralConst(t *testing.T) {
	// A helper that returns a constant lets the caller's branch fold.
	u32 := ir.U32
	five := ir.NewBuilder("five", nil, u32)
	c := ir.ConstVal(5, u32)
	five.Ret(&c)

	h := ir.NewBuilder(ir.HandlerName, nil, ir.Void)
	v := h.Call("five", "", u32)
	cond := h.ICmp(ir.PredEQ, v, ir.ConstVal(5, u32))
	thenB := h.NewBlock("then")
	elseB := h.NewBlock("else")
	h.SetBlock(h.F.Blocks[0])
	h.CondBr(cond, thenB, elseB)
	h.SetBlock(thenB)
	h.Ret(nil)
	h.SetBlock(elseB)
	h.Ret(nil)

	m := &ir.Module{Name: "ipconst", Funcs: []*ir.Func{h.F, five.F}}
	if err := ir.Verify(m); err != nil {
		t.Fatal(err)
	}
	cg := analysis.BuildCallGraph(m)
	ri := analysis.ComputeRanges(cg)[cg.Node(ir.HandlerName)]
	if v, ok := ri.ValRange(0).Const(); !ok || v != 5 {
		t.Errorf("five() call did not fold to 5 across the call: %+v", ri.ValRange(0))
	}
	var cbs []analysis.Diagnostic
	for _, d := range analysis.LintModule(m, analysis.DefaultConfig()) {
		if d.Rule == analysis.RuleConstBranch {
			cbs = append(cbs, d)
		}
	}
	if len(cbs) != 1 || !strings.Contains(cbs[0].Msg, "always true") {
		t.Fatalf("want one always-true branch, got %v", cbs)
	}
	if sm, _ := analysis.SimplifyModule(m); len(sm.Handler().Blocks) != 2 {
		t.Errorf("the folded branch was not straightened: %s", sm)
	}
}

// TestSimplifyKeepsUnenteredFunctions: a function whose only call site is
// infeasible has no interval facts, so SimplifyModule must fold none of its
// operands.
func TestSimplifyKeepsUnenteredFunctions(t *testing.T) {
	u32 := ir.U32
	dead := ir.NewBuilder("dead", []ir.Param{{Name: "x", Ty: u32}}, u32)
	v := dead.Bin(ir.OpAdd, u32, ir.ParamVal(0, u32), ir.ConstVal(1, u32))
	w := dead.Bin(ir.OpMul, u32, v, v)
	dead.Ret(&w)
	h := ir.NewBuilder(ir.HandlerName, nil, ir.Void)
	never := h.NewBlock("never")
	exit := h.NewBlock("exit")
	h.SetBlock(h.F.Blocks[0])
	h.CondBr(ir.ConstVal(0, ir.Bool), never, exit)
	h.SetBlock(never)
	h.Call("dead", "", u32, ir.ConstVal(5, u32))
	h.Br(exit)
	h.SetBlock(exit)
	h.Ret(nil)
	m := &ir.Module{Name: "unentered", Funcs: []*ir.Func{h.F, dead.F}}
	if err := ir.Verify(m); err != nil {
		t.Fatal(err)
	}
	sm, _ := analysis.SimplifyModule(m)
	text := func(f *ir.Func) (out []string) {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				out = append(out, in.String())
			}
		}
		return out
	}
	if got, want := text(sm.Func("dead")), text(m.Func("dead")); strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("rewrote a function nothing enters:\n got %q\nwant %q", got, want)
	}
}

// TestRangesRecursionWidens: parameter and return cells have no finite
// height, so a self-recursive f(n) calling f(n+1) must widen its parameter
// to the type range instead of growing it one value per solve until the
// sweep bound stops it with a narrow, unsound interval.
func TestRangesRecursionWidens(t *testing.T) {
	u32 := ir.U32
	f := ir.NewBuilder("f", []ir.Param{{Name: "n", Ty: u32}}, u32)
	f.Call("f", "", u32, f.Bin(ir.OpAdd, u32, ir.ParamVal(0, u32), ir.ConstVal(1, u32)))
	isZero := f.ICmp(ir.PredEQ, ir.ParamVal(0, u32), ir.ConstVal(0, u32))
	zero := f.NewBlock("zero")
	other := f.NewBlock("other")
	f.SetBlock(f.F.Blocks[0])
	f.CondBr(isZero, zero, other)
	f.SetBlock(zero)
	one := ir.ConstVal(1, u32)
	f.Ret(&one)
	f.SetBlock(other)
	nought := ir.ConstVal(0, u32)
	f.Ret(&nought)

	h := ir.NewBuilder(ir.HandlerName, nil, ir.Void)
	h.Call("f", "", u32, ir.ConstVal(0, u32))
	h.Ret(nil)

	m := &ir.Module{Name: "recurse", Funcs: []*ir.Func{h.F, f.F}}
	if err := ir.Verify(m); err != nil {
		t.Fatal(err)
	}
	cg := analysis.BuildCallGraph(m)
	ri := analysis.ComputeRanges(cg)[cg.Node("f")]
	// Value 0 is n+1, evaluated from the parameter's final interval.
	if got, want := ri.ValRange(0), (analysis.Interval{Lo: 0, Hi: 1<<32 - 1}); got != want {
		t.Errorf("n+1 = %+v, want the widened u32 range %+v", got, want)
	}
	for _, d := range analysis.LintModule(m, analysis.DefaultConfig()) {
		if d.Rule == analysis.RuleConstBranch || d.Rule == analysis.RuleDeadCode {
			t.Errorf("recursion's growing parameter was taken as a constant: %v", d)
		}
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
			OnState: func(global string, store bool, addr uint64, block int) {
				events = append(events, "state", global, boolStr(store), uintStr(addr))
			},
			OnAPI: func(name, global string, probes int, addr uint64, block int) {
				events = append(events, "api", name, global, uintStr(addr))
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

func TestFreqInterprocedural(t *testing.T) {
	// A helper called from a 4-iteration loop must inherit frequency 4.
	u32 := ir.U32
	help := ir.NewBuilder("bump", nil, ir.Void)
	hv := help.GLoad("ctr", u32, nil)
	help.GStore("ctr", help.Bin(ir.OpAdd, u32, hv, ir.ConstVal(1, u32)), nil)
	help.Ret(nil)

	h := ir.NewBuilder(ir.HandlerName, nil, ir.Void)
	slot := h.NewSlot()
	h.LStore(slot, ir.ConstVal(0, u32))
	head := h.NewBlock("head")
	body := h.NewBlock("body")
	exit := h.NewBlock("exit")
	h.SetBlock(h.F.Blocks[0])
	h.Br(head)
	h.SetBlock(head)
	iv := h.LLoad(slot, u32)
	cond := h.ICmp(ir.PredULT, iv, ir.ConstVal(4, u32))
	h.CondBr(cond, body, exit)
	h.SetBlock(body)
	h.Call("bump", "", ir.Void)
	iv2 := h.LLoad(slot, u32)
	h.LStore(slot, h.Bin(ir.OpAdd, u32, iv2, ir.ConstVal(1, u32)))
	h.Br(head)
	h.SetBlock(exit)
	h.Ret(nil)

	m := &ir.Module{
		Name:    "ipfreq",
		Globals: []*ir.Global{{Name: "ctr", Kind: ir.GScalar, Elem: u32}},
		Funcs:   []*ir.Func{h.F, help.F},
	}
	if err := ir.Verify(m); err != nil {
		t.Fatal(err)
	}
	fi := analysis.ComputeFreq(analysis.BuildCallGraph(m))
	bump := fi.CG.Node("bump")
	if fi.FnFreq[bump] < 3.5 || fi.FnFreq[bump] > 4.5 {
		t.Errorf("helper in a 4-loop has FnFreq %v, want ~4", fi.FnFreq[bump])
	}
	// ctr: load+store per bump call → ~8 accesses per packet.
	if w := fi.GlobalWeight["ctr"]; w < 7 || w > 9 {
		t.Errorf("ctr weight %v, want ~8", w)
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

// FuzzTaint drives the interprocedural engine (call graph, intervals,
// taint, frequency, simplify) on arbitrary source. Contract: no panics, no
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
