package analysis

import (
	"fmt"
	"strings"

	"clara/internal/ir"
	"clara/internal/lang"
)

// Payload-taint analysis (interprocedural). Sources are the packet reads
// an offloaded fast path cannot see: the ingress flow cache matches on
// parsed header fields, so any control or state-indexing decision derived
// from pkt_payload/pkt_payload_len forces the packet onto the NIC cores
// (slow path). Sinks are branch conditions, loop bounds, and state-access
// keys; the analysis classifies every natural loop and every stateful
// access as header-only (fast-path eligible) or payload-dependent
// (slow-path), and the linter attaches the classification as the *cause*
// of its loop diagnostics.
//
// The propagation is a forward may-analysis over a four-point product
// lattice (header bit × payload bit) per slot and per SSA value, made
// interprocedural by caller→callee parameter taint and callee→caller
// return taint joined to a fixpoint over the call graph's SCCs
// (CallGraph.FixpointSCC). Stored-value taint of globals is a
// module-level fact: a GStore of payload-derived data taints every later
// GLoad of that global, across functions.

// Taint is the taint lattice element: a bitmask over taint classes.
type Taint uint8

// Taint classes.
const (
	// TaintHeader marks data derived from parsed packet header fields or
	// packet metadata (lengths, timestamps) — available to the ingress
	// fast path.
	TaintHeader Taint = 1 << iota
	// TaintPayload marks data derived from packet payload bytes — only
	// the slow path (NIC cores running the full NF) can see it.
	TaintPayload
)

// Has reports whether t carries all bits of q.
func (t Taint) Has(q Taint) bool { return t&q == q }

func (t Taint) String() string {
	switch {
	case t.Has(TaintPayload):
		return "payload"
	case t.Has(TaintHeader):
		return "header"
	default:
		return "clean"
	}
}

// payloadSources are the framework APIs that read packet payload bytes.
var payloadSources = map[string]bool{
	"pkt_payload":     true,
	"pkt_payload_len": true,
}

// intrinsicTaint returns the base taint of an intrinsic's result (before
// joining argument taints) and the source name to report, or 0 for pure
// computations over their arguments.
func intrinsicTaint(name string) (Taint, string) {
	if payloadSources[name] {
		return TaintPayload, name
	}
	intr, ok := lang.Intrinsics[name]
	if !ok {
		return 0, ""
	}
	// Header and metadata reads: the pkt_* accessors with a result.
	if strings.HasPrefix(name, "pkt_") && intr.Ret != ir.Void && !intr.TakesMap {
		return TaintHeader, name
	}
	return 0, ""
}

// taintVal pairs a lattice element with the source it derives from (for
// the diagnostic cause chain). Joins keep the lexicographically smallest
// source of the highest class present, so fixpoint results are
// deterministic regardless of visit order.
type taintVal struct {
	t   Taint
	src string
}

func joinSrc(class Taint, a, b taintVal) string {
	var out string
	for _, v := range [2]taintVal{a, b} {
		if !v.t.Has(class) || v.src == "" {
			continue
		}
		if out == "" || v.src < out {
			out = v.src
		}
	}
	return out
}

func joinTaint(a, b taintVal) taintVal {
	out := taintVal{t: a.t | b.t}
	if out.t.Has(TaintPayload) {
		out.src = joinSrc(TaintPayload, a, b)
	} else if out.t.Has(TaintHeader) {
		out.src = joinSrc(TaintHeader, a, b)
	}
	return out
}

// LoopTaint classifies one natural loop.
type LoopTaint struct {
	// Fn and Head identify the loop (function name, header block index).
	Fn   string
	Head int
	// Pos anchors the loop's exit test in source.
	Pos ir.Pos
	// Cond is the joined taint of every feasible exit condition — the
	// loop-bound sink. TaintPayload here means the loop's iteration count
	// can depend on payload bytes.
	Cond taintVal
}

// PayloadDependent reports whether the loop's bound derives from payload.
func (l LoopTaint) PayloadDependent() bool { return l.Cond.t.Has(TaintPayload) }

// Cause renders the classification with its source, for diagnostics.
func (l LoopTaint) Cause() string { return causeString(l.Cond) }

// StateAccessTaint classifies one stateful access site (GLoad/GStore or a
// map/vec framework call).
type StateAccessTaint struct {
	Fn     string
	Global string
	Block  int
	Pos    ir.Pos
	// Write reports whether the site mutates the structure.
	Write bool
	// Key is the joined taint of the access key (map key, array index,
	// vector slot) — the state-access sink. An untainted key (constant or
	// local arithmetic) is header-only too: the fast path could compute
	// it.
	Key taintVal
}

// PayloadKeyed reports whether the access key derives from payload.
func (a StateAccessTaint) PayloadKeyed() bool { return a.Key.t.Has(TaintPayload) }

func causeString(v taintVal) string {
	switch {
	case v.t.Has(TaintPayload):
		if v.src != "" {
			return fmt.Sprintf("payload-dependent: derives from %s", v.src)
		}
		return "payload-dependent"
	case v.t.Has(TaintHeader):
		if v.src != "" {
			return fmt.Sprintf("header-only: derives from %s", v.src)
		}
		return "header-only"
	default:
		return "header-only: no packet-derived input"
	}
}

// TaintInfo is the module-level taint fixpoint.
type TaintInfo struct {
	CG *CallGraph
	// Loops classifies every natural loop of every function, in (node,
	// header) order.
	Loops []LoopTaint
	// Accesses classifies every stateful access site, in (node, block,
	// instruction) order.
	Accesses []StateAccessTaint
	// GlobalStored is the joined taint of values stored into each global
	// (what a load of the global yields).
	GlobalStored map[string]taintVal

	fns []*fnTaint
}

// fnTaint is the per-function taint state.
type fnTaint struct {
	vals   []taintVal // joined taint per SSA value
	params []taintVal // joined over all call sites
	ret    taintVal
	sol    *Solution[taintSlots]
}

type taintSlots []taintVal

// taintProblem instantiates the dataflow framework for one function.
type taintProblem struct {
	ti      *TaintInfo
	node    int
	changed bool // interprocedural fact (param/ret/global) moved
}

func (p *taintProblem) Boundary() taintSlots {
	// Slots start untainted (lowering zero-initializes declarations).
	return make(taintSlots, p.ti.CG.Funcs[p.node].NSlots)
}

func (p *taintProblem) Bottom() taintSlots {
	return make(taintSlots, p.ti.CG.Funcs[p.node].NSlots)
}

func (p *taintProblem) Meet(a, b taintSlots) taintSlots {
	for i := range a {
		a[i] = joinTaint(a[i], b[i])
	}
	return a
}

func (p *taintProblem) Equal(a, b taintSlots) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func (p *taintProblem) Transfer(b *ir.Block, in taintSlots) taintSlots {
	out := append(taintSlots(nil), in...)
	ft := p.ti.fns[p.node]
	for _, instr := range b.Instrs {
		tv := p.eval(instr, out)
		if instr.ID >= 0 && instr.ID < len(ft.vals) {
			j := joinTaint(ft.vals[instr.ID], tv)
			if j != ft.vals[instr.ID] {
				ft.vals[instr.ID] = j
				p.changed = true
			}
		}
		p.effects(instr, out)
	}
	return out
}

// operandTaint resolves one operand under the current slot state.
func (p *taintProblem) operandTaint(v ir.Value, slots taintSlots) taintVal {
	ft := p.ti.fns[p.node]
	switch v.Kind {
	case ir.VInstr:
		if v.ID >= 0 && v.ID < len(ft.vals) {
			return ft.vals[v.ID]
		}
	case ir.VParam:
		if v.ID >= 0 && v.ID < len(ft.params) {
			return ft.params[v.ID]
		}
	}
	return taintVal{}
}

func (p *taintProblem) joinArgs(in *ir.Instr, slots taintSlots) taintVal {
	var tv taintVal
	for _, a := range in.Args {
		tv = joinTaint(tv, p.operandTaint(a, slots))
	}
	return tv
}

// eval computes the taint of one instruction's result.
func (p *taintProblem) eval(in *ir.Instr, slots taintSlots) taintVal {
	switch in.Op {
	case ir.OpLLoad:
		if in.Slot >= 0 && in.Slot < len(slots) {
			return slots[in.Slot]
		}
		return taintVal{}
	case ir.OpGLoad:
		// The loaded value carries the global's stored taint plus the
		// index taint (a tainted index selects which value is seen).
		return joinTaint(p.ti.GlobalStored[in.Global], p.joinArgs(in, slots))
	case ir.OpCall:
		if node := p.ti.CG.CalleeNode(in); node >= 0 {
			// Intra-module call: propagate argument taint into the
			// callee's parameters and read its return summary.
			callee := p.ti.fns[node]
			for i, a := range in.Args {
				if i >= len(callee.params) {
					break
				}
				j := joinTaint(callee.params[i], p.operandTaint(a, slots))
				if j != callee.params[i] {
					callee.params[i] = j
					p.changed = true
				}
			}
			return callee.ret
		}
		base, src := intrinsicTaint(in.Callee)
		tv := joinTaint(taintVal{t: base, src: src}, p.joinArgs(in, slots))
		if in.Global != "" {
			// Stateful API results also carry the structure's stored
			// taint (map_find returns what map_insert put in).
			tv = joinTaint(tv, p.ti.GlobalStored[in.Global])
		}
		return tv
	default:
		if in.Op.IsCompute() {
			return p.joinArgs(in, slots)
		}
		return taintVal{}
	}
}

// effects applies an instruction's taint side effects: slot stores,
// global stores, and return-value summaries.
func (p *taintProblem) effects(in *ir.Instr, slots taintSlots) {
	ft := p.ti.fns[p.node]
	switch in.Op {
	case ir.OpLStore:
		if in.Slot >= 0 && in.Slot < len(slots) {
			slots[in.Slot] = p.operandTaint(in.Args[0], slots)
		}
	case ir.OpGStore:
		p.taintGlobal(in.Global, p.operandTaint(in.Args[0], slots))
	case ir.OpCall:
		if p.ti.CG.CalleeNode(in) >= 0 {
			return // handled in eval
		}
		if in.Global != "" && len(in.Args) > 0 {
			// Stateful writes: the stored-value argument of the mutating
			// APIs taints the structure.
			if vi, ok := storedValueArg(in.Callee); ok && vi < len(in.Args) {
				p.taintGlobal(in.Global, p.operandTaint(in.Args[vi], slots))
			}
		}
	case ir.OpRet:
		if len(in.Args) > 0 {
			j := joinTaint(ft.ret, p.operandTaint(in.Args[0], slots))
			if j != ft.ret {
				ft.ret = j
				p.changed = true
			}
		}
	}
}

func (p *taintProblem) taintGlobal(g string, tv taintVal) {
	j := joinTaint(p.ti.GlobalStored[g], tv)
	if j != p.ti.GlobalStored[g] {
		p.ti.GlobalStored[g] = j
		p.changed = true
	}
}

// storedValueArg returns the argument index holding the stored value for
// mutating stateful APIs (after the map argument is folded into
// Instr.Global), or ok=false for read-only APIs.
func storedValueArg(callee string) (int, bool) {
	switch callee {
	case "map_insert": // (key, value)
		return 1, true
	case "vec_push": // (value)
		return 0, true
	case "vec_set": // (index, value)
		return 1, true
	}
	return 0, false
}

// keyArgTaint returns the taint of a stateful API call's key/index
// argument (the state-access sink), and whether the call has one.
func keyArgTaint(p *taintProblem, in *ir.Instr, slots taintSlots) (taintVal, bool) {
	switch in.Callee {
	case "map_find", "map_contains", "map_insert", "map_remove",
		"vec_get", "vec_set", "vec_delete":
		if len(in.Args) > 0 {
			return p.operandTaint(in.Args[0], slots), true
		}
	case "map_size", "vec_len", "vec_push":
		// No key: whole-structure or append access. Header-only by
		// construction.
		return taintVal{}, true
	}
	return taintVal{}, false
}

// isStatefulWrite reports whether a stateful API call mutates its
// structure.
func isStatefulWrite(callee string) bool {
	switch callee {
	case "map_insert", "map_remove", "vec_push", "vec_set", "vec_delete":
		return true
	}
	return false
}

// ComputeTaint runs the interprocedural taint fixpoint over a call graph
// and classifies every loop and stateful access site. The result is kept
// on cg: the linter and the state profile read the same fixpoint.
func ComputeTaint(cg *CallGraph) *TaintInfo {
	if cg.taint != nil {
		return cg.taint
	}
	ti := &TaintInfo{CG: cg, GlobalStored: map[string]taintVal{}}
	ti.fns = make([]*fnTaint, len(cg.Funcs))
	for i, f := range cg.Funcs {
		ti.fns[i] = &fnTaint{
			vals:   make([]taintVal, f.NumVals),
			params: make([]taintVal, len(f.Params)),
		}
	}
	// SCC-ordered fixpoint: each step re-solves one function's
	// intra-procedural taint under the current interprocedural facts and
	// reports whether any summary fact (param, return, global) moved.
	cg.FixpointSCC(func(node int) bool {
		p := &taintProblem{ti: ti, node: node}
		ti.fns[node].sol = Solve[taintSlots](cg.CFGs[node], Forward, p)
		return p.changed
	})
	ti.record()
	cg.taint = ti
	return ti
}

// record walks every function once more under the final fixpoint state,
// classifying loops and state-access sites.
func (ti *TaintInfo) record() {
	for node, f := range ti.CG.Funcs {
		c := ti.CG.CFGs[node]
		p := &taintProblem{ti: ti, node: node}
		sol := ti.fns[node].sol

		// State accesses: replay each block from its entry slot state.
		for _, b := range f.Blocks {
			if !c.Reachable(b.Index) {
				continue
			}
			slots := append(taintSlots(nil), sol.In[b.Index]...)
			for _, in := range b.Instrs {
				switch in.Op {
				case ir.OpGLoad, ir.OpGStore:
					key := taintVal{}
					// Indexed access: the index is the key sink. GStore
					// carries (value, index?), GLoad (index?).
					idx := 0
					if in.Op == ir.OpGStore {
						idx = 1
					}
					if len(in.Args) > idx {
						key = p.operandTaint(in.Args[idx], slots)
					}
					ti.Accesses = append(ti.Accesses, StateAccessTaint{
						Fn: f.Name, Global: in.Global, Block: b.Index,
						Pos: in.Pos, Write: in.Op == ir.OpGStore, Key: key,
					})
				case ir.OpCall:
					if in.Global == "" || ti.CG.CalleeNode(in) >= 0 {
						break
					}
					if key, ok := keyArgTaint(p, in, slots); ok {
						ti.Accesses = append(ti.Accesses, StateAccessTaint{
							Fn: f.Name, Global: in.Global, Block: b.Index,
							Pos: in.Pos, Write: isStatefulWrite(in.Callee), Key: key,
						})
					}
				}
				p.effects(in, slots)
			}
		}

		// Loops: join the taint of every feasible exit condition.
		ri := ComputeRanges(ti.CG)[node]
		for _, l := range c.NaturalLoops() {
			if !ri.BlockReachable(l.Head) {
				continue
			}
			lt := LoopTaint{Fn: f.Name, Head: l.Head, Pos: loopPos(c, l)}
			for _, e := range l.Exits {
				term := f.Blocks[e.From].Terminator()
				if term == nil || term.Op != ir.OpCondBr {
					continue
				}
				if !ri.EdgeFeasible(e.From, e.To) {
					continue
				}
				lt.Cond = joinTaint(lt.Cond, p.operandTaint(term.Args[0], sol.Out[e.From]))
			}
			ti.Loops = append(ti.Loops, lt)
		}
	}
}

// LoopClass returns the classification of the loop headed at block head
// of function fn, if the analysis saw it.
func (ti *TaintInfo) LoopClass(fn string, head int) (LoopTaint, bool) {
	for _, l := range ti.Loops {
		if l.Fn == fn && l.Head == head {
			return l, true
		}
	}
	return LoopTaint{}, false
}

// ValueTaint exposes the joined taint of one SSA value of the named
// function — test and explainer hook.
func (ti *TaintInfo) ValueTaint(fn string, id int) Taint {
	if node := ti.CG.Node(fn); node >= 0 {
		ft := ti.fns[node]
		if id >= 0 && id < len(ft.vals) {
			return ft.vals[id].t
		}
	}
	return 0
}
