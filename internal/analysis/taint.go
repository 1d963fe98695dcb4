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
// The propagation joins a four-point product lattice (header bit × payload
// bit) over the slot SSA's def-use edges (ssa.go), per SSA value and slot
// version, made interprocedural by caller→callee parameter taint and
// callee→caller return taint joined to a fixpoint over the call graph's
// SCCs (CallGraph.FixpointSCC). Stored-value taint of globals is a
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
	// Cond is the joined taint of every feasible exit condition — the
	// loop-bound sink. TaintPayload here means the loop's iteration count
	// can depend on payload bytes.
	Cond taintVal
}

// PayloadDependent reports whether the loop's bound derives from payload.
func (l LoopTaint) PayloadDependent() bool { return l.Cond.t.Has(TaintPayload) }

// Cause renders the classification with its source, for diagnostics.
func (l LoopTaint) Cause() string { return causeString(l.Cond) }

// stateAccess joins every access site of one stateful structure
// (GLoad/GStore or a map/vec framework call).
type stateAccess struct {
	reads, writes int
	// key is the joined taint of the access keys (map key, array index,
	// vector slot) — the state-access sink. An untainted key (constant or
	// local arithmetic) is header-only too: the fast path could compute it.
	key taintVal
}

// access counts one access site of g with the given key taint.
func (ti *TaintInfo) access(g string, write bool, key taintVal) {
	a := ti.Accesses[g]
	if write {
		a.writes++
	} else {
		a.reads++
	}
	a.key = joinTaint(a.key, key)
	ti.Accesses[g] = a
}

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
	// Accesses joins the access sites of each stateful structure.
	Accesses map[string]stateAccess
	// GlobalStored is the joined taint of values stored into each global
	// (what a load of the global yields).
	GlobalStored map[string]taintVal

	fns []*fnTaint
}

// fnTaint is the per-function taint state.
type fnTaint struct {
	ssa    *SSA
	vals   []taintVal // joined taint per SSA node (values, then slot versions)
	params []taintVal // joined over all call sites
	ret    taintVal
}

// operand returns the taint of one operand of node's function.
func (ti *TaintInfo) operand(node int, v ir.Value) taintVal {
	ft := ti.fns[node]
	switch {
	case v.Kind == ir.VInstr && v.ID >= 0 && v.ID < len(ft.ssa.def):
		return ft.vals[v.ID]
	case v.Kind == ir.VParam && v.ID >= 0 && v.ID < len(ft.params):
		return ft.params[v.ID]
	}
	return taintVal{}
}

func (ti *TaintInfo) joinArgs(node int, in *ir.Instr) taintVal {
	var tv taintVal
	for _, a := range in.Args {
		tv = joinTaint(tv, ti.operand(node, a))
	}
	return tv
}

// eval computes the taint of one instruction's result.
func (ti *TaintInfo) eval(node int, in *ir.Instr) taintVal {
	switch in.Op {
	case ir.OpLLoad:
		ft := ti.fns[node]
		return ft.vals[ft.ssa.node(ft.ssa.loadVer[in.ID])]
	case ir.OpGLoad:
		// The loaded value carries the global's stored taint plus the
		// index taint (a tainted index selects which value is seen).
		return joinTaint(ti.GlobalStored[in.Global], ti.joinArgs(node, in))
	case ir.OpCall:
		if callee := ti.CG.Node(in.Callee); callee >= 0 {
			return ti.fns[callee].ret
		}
		base, src := intrinsicTaint(in.Callee)
		tv := joinTaint(taintVal{t: base, src: src}, ti.joinArgs(node, in))
		if in.Global != "" {
			// Stateful API results also carry the structure's stored
			// taint (map_find returns what map_insert put in).
			tv = joinTaint(tv, ti.GlobalStored[in.Global])
		}
		return tv
	}
	if in.Op.IsCompute() {
		return ti.joinArgs(node, in)
	}
	return taintVal{}
}

// solve propagates taint through node's function under the current
// interprocedural facts and reports whether one of them (a callee's
// parameter, the return, a global's stored taint) moved. Every node only
// joins, so a fact a later solve needs is never lost.
func (ti *TaintInfo) solve(node int) bool {
	ft := ti.fns[node]
	s := ft.ssa
	changed := false
	join := func(cell *taintVal, tv taintVal) bool {
		j := joinTaint(*cell, tv)
		moved := j != *cell
		*cell = j
		return moved
	}
	// A global's stored taint is module-level: every later GLoad sees it.
	store := func(g string, tv taintVal) {
		if cell := ti.GlobalStored[g]; join(&cell, tv) {
			ti.GlobalStored[g], changed = cell, true
		}
	}
	w := s.newWorklist()
	for _, b := range s.c.RPO {
		w.reach(b)
	}
	w.run(func(b int) {
		set := func(n int, tv taintVal) {
			if join(&ft.vals[n], tv) {
				w.moved(n)
			}
		}
		for _, v := range s.phis[b] {
			for _, o := range s.vers[v].ops {
				set(s.node(v), ft.vals[s.node(o)])
			}
		}
		sv := s.storeBase[b]
		for _, in := range s.c.F.Blocks[b].Instrs {
			if in.ID >= 0 && in.ID < len(s.def) {
				set(in.ID, ti.eval(node, in))
			}
			switch in.Op {
			case ir.OpLStore:
				set(s.node(sv), ti.operand(node, in.Args[0]))
				sv++
			case ir.OpGStore:
				store(in.Global, ti.operand(node, in.Args[0]))
			case ir.OpCall:
				if callee := ti.CG.Node(in.Callee); callee >= 0 {
					// Intra-module call: argument taint flows into the
					// callee's parameters.
					for i, a := range in.Args {
						if i < len(ti.fns[callee].params) {
							changed = join(&ti.fns[callee].params[i], ti.operand(node, a)) || changed
						}
					}
				} else if api, ok := stateAPIs[in.Callee]; ok && in.Global != "" && api.val >= 0 && api.val < len(in.Args) {
					// Stateful writes: the stored value taints the structure.
					store(in.Global, ti.operand(node, in.Args[api.val]))
				}
			case ir.OpRet:
				if len(in.Args) > 0 {
					changed = join(&ft.ret, ti.operand(node, in.Args[0])) || changed
				}
			}
		}
		for _, e := range s.sigmas[b] {
			for v := e.first; v < e.first+e.n; v++ {
				set(s.node(v), ft.vals[s.node(s.vers[v].ops[0])])
			}
		}
	})
	return changed
}

// stateAPI describes a stateful framework API's arguments once its map
// argument is folded into Instr.Global: key indexes the key or slot
// argument, the state-access sink (-1 for whole-structure and append
// access, header-only by construction), and val the stored value that
// taints the structure (-1 for APIs that store nothing).
type stateAPI struct {
	key, val int
	write    bool
}

var stateAPIs = map[string]stateAPI{
	"map_find": {0, -1, false}, "map_contains": {0, -1, false},
	"map_insert": {0, 1, true}, "map_remove": {0, -1, true},
	"vec_get": {0, -1, false}, "vec_set": {0, 1, true}, "vec_delete": {0, -1, true},
	"map_size": {-1, -1, false}, "vec_len": {-1, -1, false}, "vec_push": {-1, 0, true},
}

// ComputeTaint runs the interprocedural taint fixpoint over a call graph
// and joins every stateful access site; LoopClass classifies loops from
// it. The result is kept on cg: the linter and the state profile read the
// same fixpoint.
func ComputeTaint(cg *CallGraph) *TaintInfo {
	if cg.taint != nil {
		return cg.taint
	}
	ti := &TaintInfo{CG: cg, GlobalStored: map[string]taintVal{}, Accesses: map[string]stateAccess{}}
	ti.fns = make([]*fnTaint, len(cg.Funcs))
	for i, f := range cg.Funcs {
		s := cg.ssaOf(i)
		ti.fns[i] = &fnTaint{
			ssa:    s,
			vals:   make([]taintVal, len(s.def)+len(s.vers)),
			params: make([]taintVal, len(f.Params)),
		}
	}
	cg.FixpointSCC(ti.solve)
	ti.record()
	cg.taint = ti
	return ti
}

// record joins every state-access site's key taint under the fixpoint.
func (ti *TaintInfo) record() {
	for node, f := range ti.CG.Funcs {
		c := ti.CG.CFGs[node]
		for _, b := range f.Blocks {
			if !c.Reachable(b.Index) {
				continue
			}
			for _, in := range b.Instrs {
				switch in.Op {
				case ir.OpGLoad, ir.OpGStore:
					// Indexed access: the index is the key sink. GStore
					// carries (value, index?), GLoad (index?).
					idx, key := 0, taintVal{}
					if in.Op == ir.OpGStore {
						idx = 1
					}
					if len(in.Args) > idx {
						key = ti.operand(node, in.Args[idx])
					}
					ti.access(in.Global, in.Op == ir.OpGStore, key)
				case ir.OpCall:
					api, ok := stateAPIs[in.Callee]
					if !ok || in.Global == "" || ti.CG.Node(in.Callee) >= 0 || api.key >= len(in.Args) {
						break
					}
					key := taintVal{}
					if api.key >= 0 {
						key = ti.operand(node, in.Args[api.key])
					}
					ti.access(in.Global, api.write, key)
				}
			}
		}

	}
}

// ValueTaint exposes the joined taint of one SSA value of the named
// function — test and explainer hook.
func (ti *TaintInfo) ValueTaint(fn string, id int) Taint {
	if node := ti.CG.Node(fn); node >= 0 {
		return ti.operand(node, ir.InstrVal(id, 0)).t
	}
	return 0
}

// LoopClass classifies the loop headed at block head of function fn by the
// joined taint of its feasible exit conditions, the loop-bound sink; ok is
// false when no feasible path reaches the loop.
func (ti *TaintInfo) LoopClass(fn string, head int) (lt LoopTaint, ok bool) {
	node := ti.CG.Node(fn)
	if node < 0 || !ComputeRanges(ti.CG)[node].BlockReachable(head) {
		return lt, false
	}
	ri, f := ComputeRanges(ti.CG)[node], ti.CG.Funcs[node]
	for _, l := range ti.CG.CFGs[node].NaturalLoops() {
		for _, e := range l.Exits {
			if t := f.Blocks[e.From].Terminator(); l.Head == head && t.Op == ir.OpCondBr && ri.EdgeFeasible(e.From, e.To) {
				lt.Cond = joinTaint(lt.Cond, ti.operand(node, t.Args[0]))
			}
		}
	}
	return lt, true
}
