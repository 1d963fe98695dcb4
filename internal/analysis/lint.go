package analysis

import (
	"fmt"

	"clara/internal/ir"
	"clara/internal/lang"
)

// The offloadability linter: a rule catalog over the CFG and slot-SSA facts
// that flags SmartNIC-hostile constructs before any porting effort is
// spent (the paper's pitch: insights from the unported NF). Each rule has
// a stable ID so reports, golden files, and downstream tooling can key on
// it.

// Rule identifiers.
const (
	// RuleLoopUnbounded: a loop with no feasible exit. Run-to-completion
	// NIC cores have no preemption; an unbounded per-packet loop stalls
	// the core and, with it, a share of the NIC.
	RuleLoopUnbounded = "loop-unbounded"
	// RuleLoopVarBound: a loop whose trip count cannot be bounded (or
	// exceeds the per-packet budget). Latency becomes input-dependent.
	RuleLoopVarBound = "loop-varbound"
	// RuleFloatOp: a framework call whose host implementation is floating
	// point. NIC cores have no FPU; soft-float emulation is ~100x.
	RuleFloatOp = "float-op"
	// RuleStateOversize: a stateful structure that exceeds a memory-tier
	// budget (error: does not fit the NIC at all; warning: spills past the
	// on-chip SRAM tiers into DRAM-backed EMEM).
	RuleStateOversize = "state-oversize"
	// RuleRecursion: recursive calls (no stack to speak of on the NIC;
	// Micro-C forbids recursion).
	RuleRecursion = "recursion"
	// RuleDeadStore: a computed value stored to a local that is never
	// read — wasted cycles on a wimpy core, often a porting bug.
	RuleDeadStore = "dead-store"
	// RuleUninitRead: a local read that may observe its uninitialized
	// function-entry value.
	RuleUninitRead = "uninit-read"
	// RuleReversePort: a stateful framework API whose host and NIC
	// implementations diverge; the call must be reverse ported (§3.3).
	RuleReversePort = "api-reverse-port"
	// RuleAPIUnknown: a call to an API outside the framework registry;
	// nothing is known about its NIC cost or semantics.
	RuleAPIUnknown = "api-unknown"
	// RuleConstBranch: a two-way branch whose condition is compile-time
	// constant — the untaken side is pure instruction-store waste on the
	// NIC, and usually a porting leftover.
	RuleConstBranch = "const-branch"
	// RuleDeadCode: a block no feasible path executes (behind an
	// always-false branch) that still occupies NIC instruction store.
	RuleDeadCode = "dead-code"
)

// RuleDoc documents one rule for the `clara -why <rule>` explainer.
type RuleDoc struct {
	Rule     string
	Severity Severity
	Summary  string
	Detail   string
}

// RuleDocs is the rule catalog in stable order: what each rule means, why
// it matters on a SmartNIC, and what analysis produces it.
var RuleDocs = []RuleDoc{
	{RuleLoopUnbounded, SevError, "a loop with no feasible exit",
		"Range propagation found no exit edge that can be taken. Run-to-completion NIC cores have no preemption: a per-packet loop that never exits stalls the core and a share of the NIC's throughput with it. The taint engine attaches a cause classifying the loop's condition as header-only or payload-dependent."},
	{RuleLoopVarBound, SevWarning, "a loop whose trip count cannot be bounded, or exceeds the per-packet budget",
		"Trip-count inference (induction slot + range analysis) could not bound the iterations, or the bound exceeds the configured budget. Per-packet latency becomes input-dependent. The attached cause states whether the bound derives from packet headers (fast-path computable) or payload bytes (slow-path only), naming the source API."},
	{RuleFloatOp, SevError, "a framework call computing in floating point",
		"NIC cores have no FPU; soft-float emulation costs ~100x. Rewrite with fixed-point integer arithmetic."},
	{RuleStateOversize, SevError, "a stateful structure exceeding a memory-tier budget",
		"Errors mean the structure does not fit the largest tier (EMEM) at all; warnings mean it spills past on-chip SRAM into DRAM-backed EMEM, adding latency to every access."},
	{RuleRecursion, SevError, "recursive functions",
		"NIC cores have no call stack; Micro-C forbids recursion. Detected on the AST before lowering (the frontend refuses to inline cycles)."},
	{RuleDeadStore, SevWarning, "a computed value stored to a local that is never read",
		"Wasted cycles on a wimpy core, often a porting bug. Constant stores are exempt (declaration defaults cost nothing after register allocation)."},
	{RuleUninitRead, SevWarning, "a local read that may observe its uninitialized entry value",
		"The slot's undefined entry value reaches the load through the slot SSA: on some path it is read before any store. Frontend-lowered code zero-initializes declarations, so this fires on hand-built IR."},
	{RuleReversePort, SevInfo, "a stateful framework API with divergent host/NIC implementations",
		"The call must be reverse ported (paper §3.3): the NIC side has fixed capacity and no growth, unlike the host's elastic structures."},
	{RuleAPIUnknown, SevWarning, "a call to an API outside the framework registry",
		"Nothing is known about the callee's NIC cost or semantics; the predictor cannot price it and the linter cannot check it."},
	{RuleConstBranch, SevWarning, "a two-way branch whose condition is compile-time constant",
		"The interprocedural interval analysis decides the condition: exactly one side of the branch is feasible. The untaken side is dead weight in the NIC instruction store; SimplifyModule straightens such branches."},
	{RuleDeadCode, SevWarning, "a block no feasible path executes",
		"The block is reachable in the CFG but the interval analysis proves every path into it takes another branch side. It still occupies instruction store and skews naive per-block predictions; SimplifyModule removes it."},
}

// DocFor returns the documentation entry for a rule ID.
func DocFor(rule string) (RuleDoc, bool) {
	for _, d := range RuleDocs {
		if d.Rule == rule {
			return d, true
		}
	}
	return RuleDoc{}, false
}

// Config parameterizes the linter's budgets. The defaults mirror the
// reference NIC model (internal/nicsim.DefaultParams).
type Config struct {
	// TotalBudget is the largest stateful tier in bytes (EMEM): a single
	// structure beyond it cannot be placed at all.
	TotalBudget int
	// FastBudget is the combined on-chip SRAM capacity (CLS+CTM+IMEM): a
	// structure beyond it is forced into DRAM-backed EMEM.
	FastBudget int
}

// tripBudget is the per-packet loop iteration budget: a bounded loop
// beyond it still ruins per-packet latency.
const tripBudget = 1 << 16

// DefaultConfig returns budgets matching the reference hardware model:
// 1 GB EMEM and 64 KB CLS + 224 KB CTM + 4 MB IMEM on chip.
func DefaultConfig() Config {
	return Config{
		TotalBudget: 1 << 30,
		FastBudget:  64<<10 + 224<<10 + 4<<20,
	}
}

// Analyze is the job pipeline's single entry into this package: the lint
// diagnostics and the static state profile of m from one call graph, so
// every shared fact (CFGs, loops, ranges, trip counts, taint) is computed
// once. The results equal LintModule's and ComputeStateProfile's.
func Analyze(m *ir.Module, cfg Config) ([]Diagnostic, *StateProfile) {
	cg := BuildCallGraph(m)
	return lint(cg, cfg, nil), stateProfile(cg)
}

// LintModule runs the offloadability rule catalog over a lowered module.
func LintModule(m *ir.Module, cfg Config) []Diagnostic {
	return lint(BuildCallGraph(m), cfg, nil)
}

func lint(cg *CallGraph, cfg Config, gpos map[string]ir.Pos) []Diagnostic {
	m := cg.M
	ds := lintGlobals(m, cfg, gpos)
	// The interprocedural fixpoints run once per module; their facts
	// (taint causes, value ranges) thread through the per-function rules.
	ti := ComputeTaint(cg)
	for node, ri := range ComputeRanges(cg) {
		f, c := cg.Funcs[node], cg.CFGs[node]
		ds = append(ds, lintLoops(m, f, c, ri, ti)...)
		ds = append(ds, lintConstFacts(m, f, ri)...)
		ds = append(ds, lintCalls(m, f, c)...)
		ds = append(ds, lintDeadStores(m, f, ri.ssa)...)
		ds = append(ds, lintUninitReads(m, f, ri.ssa)...)
	}
	return NormalizeDiagnostics(ds)
}

// LintSource parses, checks, lowers, and lints NFC source. Findings that
// lowering cannot represent (recursion is rejected before IR exists) are
// detected on the AST. Parse/compile failures are returned as an error,
// not diagnostics: a broken element is not an offloading insight.
func LintSource(name, src string, cfg Config) ([]Diagnostic, error) {
	file, err := lang.Parse(name, src)
	if err != nil {
		return nil, err
	}
	if ds := lintRecursion(file); len(ds) > 0 {
		SortDiagnostics(ds)
		return ds, nil
	}
	m, err := lang.Lower(file)
	if err != nil {
		return nil, err
	}
	gpos := make(map[string]ir.Pos, len(file.Globals))
	for _, g := range file.Globals {
		gpos[g.Name] = ir.Pos{Line: g.Line, Col: g.Col}
	}
	return lint(BuildCallGraph(m), cfg, gpos), nil
}

// lintRecursion detects call-graph cycles on the AST (lowering refuses to
// inline them, so they never reach the IR).
func lintRecursion(file *lang.File) []Diagnostic {
	decls := map[string]*lang.FuncDecl{}
	for _, f := range file.Funcs {
		decls[f.Name] = f
	}
	calls := map[string][]string{}
	for _, f := range file.Funcs {
		seen := map[string]bool{}
		collectCalls(f.Body, func(name string) {
			if _, ok := decls[name]; ok && !seen[name] {
				seen[name] = true
				calls[f.Name] = append(calls[f.Name], name)
			}
		})
	}
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := map[string]int{}
	var ds []Diagnostic
	var visit func(name string)
	visit = func(name string) {
		color[name] = gray
		for _, callee := range calls[name] {
			switch color[callee] {
			case white:
				visit(callee)
			case gray: // back edge: cycle through callee
				d := decls[callee]
				ds = append(ds, finding(RuleRecursion, file.Name, callee, ir.Pos{Line: d.Line, Col: d.Col},
					fmt.Sprintf("function %q is recursive", callee),
					"convert to an iterative form with a bounded loop; NIC cores have no call stack for recursion"))
			}
		}
		color[name] = black
	}
	for _, f := range file.Funcs {
		if color[f.Name] == white {
			visit(f.Name)
		}
	}
	return ds
}

// collectCalls walks a statement tree invoking fn for every call target.
func collectCalls(s lang.Stmt, fn func(string)) {
	var walkExpr func(e lang.Expr)
	walkExpr = func(e lang.Expr) {
		switch e := e.(type) {
		case *lang.CallExpr:
			fn(e.Name)
			for _, a := range e.Args {
				walkExpr(a)
			}
		case *lang.IndexExpr:
			walkExpr(e.Index)
		case *lang.CastExpr:
			walkExpr(e.X)
		case *lang.UnaryExpr:
			walkExpr(e.X)
		case *lang.BinaryExpr:
			walkExpr(e.X)
			walkExpr(e.Y)
		}
	}
	var walk func(s lang.Stmt)
	walk = func(s lang.Stmt) {
		switch s := s.(type) {
		case *lang.BlockStmt:
			if s == nil {
				return
			}
			for _, st := range s.List {
				walk(st)
			}
		case *lang.VarDecl:
			if s.Init != nil {
				walkExpr(s.Init)
			}
		case *lang.AssignStmt:
			if s.Target.Index != nil {
				walkExpr(s.Target.Index)
			}
			walkExpr(s.Value)
		case *lang.IfStmt:
			walkExpr(s.Cond)
			walk(s.Then)
			if s.Else != nil {
				walk(s.Else)
			}
		case *lang.WhileStmt:
			walkExpr(s.Cond)
			walk(s.Body)
		case *lang.ForStmt:
			if s.Init != nil {
				walk(s.Init)
			}
			if s.Cond != nil {
				walkExpr(s.Cond)
			}
			if s.Post != nil {
				walk(s.Post)
			}
			walk(s.Body)
		case *lang.ReturnStmt:
			if s.Value != nil {
				walkExpr(s.Value)
			}
		case *lang.ExprStmt:
			walkExpr(s.X)
		}
	}
	walk(s)
}

// finding builds a diagnostic of rule at pos with the rule's catalog
// severity.
func finding(rule, elem, fn string, pos ir.Pos, msg, hint string) Diagnostic {
	doc, _ := DocFor(rule)
	return Diagnostic{Rule: rule, Severity: doc.Severity, Elem: elem, Fn: fn, Line: pos.Line, Col: pos.Col, Msg: msg, Hint: hint}
}

// lintGlobals applies the state-size rule.
func lintGlobals(m *ir.Module, cfg Config, gpos map[string]ir.Pos) []Diagnostic {
	var ds []Diagnostic
	for _, g := range m.Globals {
		size := g.SizeBytes()
		pos := gpos[g.Name]
		switch {
		case size > cfg.TotalBudget:
			ds = append(ds, finding(RuleStateOversize, m.Name, "", pos,
				fmt.Sprintf("%s %q needs %d bytes of stateful memory; the largest NIC tier holds %d",
					g.Kind, g.Name, size, cfg.TotalBudget),
				"shrink the structure (fewer entries or narrower types) or keep it on the host"))
		case size > cfg.FastBudget:
			d := finding(RuleStateOversize, m.Name, "", pos,
				fmt.Sprintf("%s %q needs %d bytes, beyond the %d bytes of on-chip SRAM; it will be placed in DRAM-backed EMEM",
					g.Kind, g.Name, size, cfg.FastBudget),
				"shrink the structure to fit an SRAM tier, or expect EMEM latency on every access")
			d.Severity = SevWarning // it fits, in the slowest tier
			ds = append(ds, d)
		}
	}
	return ds
}

// lintConstFacts surfaces the branches the interval fixpoint decides and
// the blocks it proves dead: exactly what SimplifyModule rewrites.
func lintConstFacts(m *ir.Module, f *ir.Func, ri *RangeInfo) []Diagnostic {
	var ds []Diagnostic
	for _, b := range f.Blocks {
		if taken, ok := ri.constBranch(b.Index); ok {
			t := b.Terminator()
			truth := "true"
			if taken != t.True {
				truth = "false"
			}
			ds = append(ds, finding(RuleConstBranch, m.Name, f.Name, t.Pos,
				fmt.Sprintf("branch condition is always %s; the untaken side is dead weight in the NIC instruction store", truth),
				"delete the dead side, or make the condition depend on runtime input"))
		}
		if !ri.c.Reachable(b.Index) || ri.BlockReachable(b.Index) {
			continue
		}
		var pos ir.Pos
		for _, in := range b.Instrs {
			if in.Pos.IsValid() {
				pos = in.Pos
				break
			}
		}
		ds = append(ds, finding(RuleDeadCode, m.Name, f.Name, pos,
			fmt.Sprintf("block b%d is unreachable under propagated constants; it still occupies NIC instruction store", b.Index),
			"remove the dead code, or make the branch guarding it depend on runtime input"))
	}
	return ds
}

// loopPos picks the most useful source anchor for a loop: the earliest
// exit branch (the loop condition), else the earliest position in the
// body. Earliest in source, not in block order, so the anchor does not
// depend on how the blocks are numbered.
func loopPos(c *CFG, l *Loop) ir.Pos {
	var pos ir.Pos
	for _, e := range l.Exits {
		if t := c.F.Blocks[e.From].Terminator(); t != nil {
			pos = earlier(pos, t.Pos)
		}
	}
	if pos.IsValid() {
		return pos
	}
	for _, bi := range l.Blocks {
		for _, in := range c.F.Blocks[bi].Instrs {
			pos = earlier(pos, in.Pos)
		}
	}
	return pos
}

// earlier returns whichever valid position comes first in source.
func earlier(a, b ir.Pos) ir.Pos {
	if !b.IsValid() || a.IsValid() && (a.Line < b.Line || a.Line == b.Line && a.Col <= b.Col) {
		return a
	}
	return b
}

// lintLoops applies the trip-count rules to every natural loop. The taint
// engine supplies the cause: whether the loop's bound derives from packet
// headers (a fast path could still compute it) or payload bytes (slow
// path only).
func lintLoops(m *ir.Module, f *ir.Func, c *CFG, ri *RangeInfo, ti *TaintInfo) []Diagnostic {
	var ds []Diagnostic
	for _, l := range c.NaturalLoops() {
		if !ri.BlockReachable(l.Head) {
			continue
		}
		tc := ri.InferTripCount(l)
		pos := loopPos(c, l)
		cause := ""
		if lt, ok := ti.LoopClass(f.Name, l.Head); ok {
			cause = lt.Cause()
		}
		var d Diagnostic
		switch {
		case !tc.HasFeasibleExit:
			d = finding(RuleLoopUnbounded, m.Name, f.Name, pos,
				"loop has no feasible exit; a run-to-completion NIC core would never finish the packet",
				"bound the loop with an induction variable and a constant limit")
		case !tc.Bounded:
			d = finding(RuleLoopVarBound, m.Name, f.Name, pos,
				"cannot bound the loop's iteration count; per-packet latency becomes input-dependent",
				"cap the controlling variable with a constant (e.g. clamp it before the loop)")
			d.Cause = cause
		case tc.Max > tripBudget:
			d = finding(RuleLoopVarBound, m.Name, f.Name, pos,
				fmt.Sprintf("loop may run %d iterations per packet, beyond the %d budget", tc.Max, tripBudget),
				"tighten the loop bound or move the work off the per-packet path")
			d.Cause = cause
		default:
			continue
		}
		ds = append(ds, d)
	}
	return ds
}

// lintCalls applies the API rules: float emulation, unknown APIs, and
// reverse-porting notes for stateful framework calls (one per callee, at
// its first call in source order).
func lintCalls(m *ir.Module, f *ir.Func, c *CFG) []Diagnostic {
	var ds []Diagnostic
	noted := map[string]int{} // callee -> index of its note in ds
	for _, b := range f.Blocks {
		if !c.Reachable(b.Index) {
			continue
		}
		for _, in := range b.Instrs {
			if in.Op != ir.OpCall {
				continue
			}
			intr, known := lang.Intrinsics[in.Callee]
			switch {
			case !known:
				ds = append(ds, finding(RuleAPIUnknown, m.Name, f.Name, in.Pos,
					fmt.Sprintf("call to %q, which is not a known framework API; its NIC cost and semantics are unknown", in.Callee),
					"port the callee explicitly or replace it with a framework API"))
			case intr.Float:
				ds = append(ds, finding(RuleFloatOp, m.Name, f.Name, in.Pos,
					fmt.Sprintf("%q computes in floating point on the host; NIC cores have no FPU and fall back to soft-float emulation", in.Callee),
					"rewrite with fixed-point integer arithmetic (e.g. a shifted EWMA)"))
			case intr.Stateful:
				if i, ok := noted[in.Callee]; ok {
					p := earlier(ir.Pos{Line: ds[i].Line, Col: ds[i].Col}, in.Pos)
					ds[i].Line, ds[i].Col = p.Line, p.Col
					continue
				}
				noted[in.Callee] = len(ds)
				ds = append(ds, finding(RuleReversePort, m.Name, f.Name, in.Pos,
					fmt.Sprintf("%q has divergent host/NIC implementations; the call must be reverse ported", in.Callee),
					"review the NIC-side semantics (fixed capacity, no growth) against the host's elastic structures"))
			}
		}
	}
	return ds
}

// lintDeadStores flags stores of computed values whose version no load
// reads, directly or through phis. Constant stores are exempt: the
// -O0-style lowering emits them for every declaration default, and they
// cost the NIC compiler nothing after register allocation.
func lintDeadStores(m *ir.Module, f *ir.Func, s *SSA) []Diagnostic {
	live := s.liveVersions()
	var ds []Diagnostic
	for v, ver := range s.vers {
		if in := ver.store; in != nil && !live[v] && in.Args[0].Kind != ir.VConst {
			ds = append(ds, finding(RuleDeadStore, m.Name, f.Name, in.Pos,
				fmt.Sprintf("computed value stored to local slot %d is never read", in.Slot),
				"delete the assignment, or use the value; wimpy NIC cores cannot spare the cycles"))
		}
	}
	return ds
}

// lintUninitReads flags loads the entry's undefined value may reach
// (possible only in hand-built IR; lowering zero-initializes every
// declaration).
func lintUninitReads(m *ir.Module, f *ir.Func, s *SSA) []Diagnostic {
	undef := s.undefVersions()
	var ds []Diagnostic
	reported := map[int]bool{} // one report per slot keeps the noise down
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op != ir.OpLLoad || reported[in.Slot] || s.loadVer[in.ID] < 0 || !undef[s.loadVer[in.ID]] {
				continue
			}
			reported[in.Slot] = true
			ds = append(ds, finding(RuleUninitRead, m.Name, f.Name, in.Pos,
				fmt.Sprintf("local slot %d may be read before it is written", in.Slot),
				"initialize the variable on every path before this read"))
		}
	}
	return ds
}
