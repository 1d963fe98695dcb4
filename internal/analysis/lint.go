package analysis

import (
	"errors"
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
	// RuleRecursion: a recursive call reachable from the handler (no
	// stack to speak of on the NIC; Micro-C forbids recursion).
	RuleRecursion = "recursion"
	// RuleDeadStore: a computed value stored to a local that is never
	// read — wasted cycles on a wimpy core, often a porting bug.
	RuleDeadStore = "dead-store"
	// RuleReversePort: a stateful framework API whose host and NIC
	// implementations diverge; the call must be reverse ported (§3.3).
	RuleReversePort = "api-reverse-port"
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
	{RuleRecursion, SevError, "a recursive function the handler calls",
		"NIC cores have no call stack; Micro-C forbids recursion. The frontend inlines every function the handler calls and refuses a call that re-enters one; the finding is that refusal, placed at the re-entered function's declaration. A recursive function the handler never calls is never lowered and draws no finding."},
	{RuleDeadStore, SevWarning, "a computed value stored to a local that is never read",
		"Wasted cycles on a wimpy core, often a porting bug. Constant stores are exempt (declaration defaults cost nothing after register allocation)."},
	{RuleReversePort, SevInfo, "a stateful framework API with divergent host/NIC implementations",
		"The call must be reverse ported (paper §3.3): the NIC side has fixed capacity and no growth, unlike the host's elastic structures."},
	{RuleConstBranch, SevWarning, "a two-way branch whose condition is compile-time constant",
		"The interval analysis decides the condition: exactly one side of the branch is feasible. The untaken side is dead weight in the NIC instruction store; SimplifyModule straightens such branches."},
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
// diagnostics and the static state profile of m from one Facts, so every
// shared fact (CFG, loops, ranges, trip counts, taint) is computed once.
// The results equal LintModule's and ComputeStateProfile's.
func Analyze(m *ir.Module, cfg Config) ([]Diagnostic, *StateProfile) {
	fx := NewFacts(m)
	return lint(fx, cfg, nil), stateProfile(fx)
}

// LintModule runs the offloadability rule catalog over a lowered module.
func LintModule(m *ir.Module, cfg Config) []Diagnostic {
	return lint(NewFacts(m), cfg, nil)
}

func lint(fx *Facts, cfg Config, gpos map[string]ir.Pos) []Diagnostic {
	m, f, c := fx.M, fx.F, fx.CFG
	ds := lintGlobals(m, cfg, gpos)
	// The fixpoints run once per module; their facts (taint causes, value
	// ranges) thread through the rules.
	ti, ri := ComputeTaint(fx), ComputeRanges(fx)
	ds = append(ds, lintLoops(m, f, c, ri, ti)...)
	ds = append(ds, lintConstFacts(m, f, ri)...)
	ds = append(ds, lintCalls(m, f, c)...)
	ds = append(ds, lintDeadStores(m, f, ri.ssa)...)
	return NormalizeDiagnostics(ds)
}

// LintSource parses, checks, lowers, and lints NFC source. Recursion, which
// lowering refuses, is the one finding made without IR: the refusal becomes
// the recursion diagnostic. Other parse/compile failures are returned as an
// error, not diagnostics: a broken element is not an offloading insight.
func LintSource(name, src string, cfg Config) ([]Diagnostic, error) {
	file, err := lang.Parse(name, src)
	if err != nil {
		return nil, err
	}
	m, err := lang.Lower(file)
	if rec := (*lang.RecursionError)(nil); errors.As(err, &rec) {
		fn := rec.Func
		return []Diagnostic{finding(RuleRecursion, file.Name, fn.Name, ir.Pos{Line: fn.Line, Col: fn.Col},
			fmt.Sprintf("function %q is recursive", fn.Name),
			"convert to an iterative form with a bounded loop; NIC cores have no call stack for recursion")}, nil
	}
	if err != nil {
		return nil, err
	}
	gpos := make(map[string]ir.Pos, len(file.Globals))
	for _, g := range file.Globals {
		gpos[g.Name] = ir.Pos{Line: g.Line, Col: g.Col}
	}
	return lint(NewFacts(m), cfg, gpos), nil
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
		if lt, ok := ti.LoopClass(l.Head); ok {
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

// lintCalls applies the API rules: float emulation and reverse-porting
// notes for stateful framework calls (one per callee, at
// its first call in source order).
func lintCalls(m *ir.Module, f *ir.Func, c *CFG) []Diagnostic {
	var ds []Diagnostic
	noted := map[ir.API]int{} // API -> index of its note in ds
	for _, b := range f.Blocks {
		if !c.Reachable(b.Index) {
			continue
		}
		for _, in := range b.Instrs {
			if in.Op != ir.OpCall {
				continue
			}
			api, _ := ir.LookupAPI(in.Callee)
			switch {
			case ir.APIs[api].Float:
				ds = append(ds, finding(RuleFloatOp, m.Name, f.Name, in.Pos,
					fmt.Sprintf("%q computes in floating point on the host; NIC cores have no FPU and fall back to soft-float emulation", in.Callee),
					"rewrite with fixed-point integer arithmetic (e.g. a shifted EWMA)"))
			case ir.APIs[api].State != ir.GScalar:
				if i, ok := noted[api]; ok {
					p := earlier(ir.Pos{Line: ds[i].Line, Col: ds[i].Col}, in.Pos)
					ds[i].Line, ds[i].Col = p.Line, p.Col
					continue
				}
				noted[api] = len(ds)
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
