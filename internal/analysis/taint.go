package analysis

import (
	"fmt"
	"strings"

	"clara/internal/ir"
)

// Payload-taint analysis. Sources are the packet reads
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
// bit) over the handler's slot SSA def-use edges (ssa.go), per SSA value
// and slot version. Stored-value taint of globals is a module-level fact:
// a GStore of payload-derived data taints every GLoad of that global, on
// this packet's later path and on every later packet's.

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

// intrinsicTaint returns the base taint of a framework API call's result
// (before joining argument taints) and the source name to report, or 0
// for pure computations over their arguments.
func intrinsicTaint(callee string) (Taint, string) {
	api, _ := ir.LookupAPI(callee)
	switch a := &ir.APIs[api]; {
	case api == ir.APIPktPayload || api == ir.APIPktPayloadLen:
		// The framework APIs that read packet payload bytes.
		return TaintPayload, a.Name
	case strings.HasPrefix(a.Name, "pkt_") && a.Ret != ir.Void:
		// Header and metadata reads: the pkt_* accessors with a result.
		return TaintHeader, a.Name
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
	fx *Facts
	// Accesses joins the access sites of each stateful structure.
	Accesses map[string]stateAccess
	// GlobalStored is the joined taint of values stored into each global
	// (what a load of the global yields).
	GlobalStored map[string]taintVal

	ssa  *SSA
	vals []taintVal // joined taint per SSA node (values, then slot versions)
}

// operand returns the taint of one operand.
func (ti *TaintInfo) operand(v ir.Value) taintVal {
	if v.Kind == ir.VInstr && v.ID >= 0 && v.ID < len(ti.ssa.def) {
		return ti.vals[v.ID]
	}
	return taintVal{}
}

func (ti *TaintInfo) joinArgs(in *ir.Instr) taintVal {
	var tv taintVal
	for _, a := range in.Args {
		tv = joinTaint(tv, ti.operand(a))
	}
	return tv
}

// eval computes the taint of one instruction's result.
func (ti *TaintInfo) eval(in *ir.Instr) taintVal {
	switch in.Op {
	case ir.OpLLoad:
		return ti.vals[ti.ssa.node(ti.ssa.loadVer[in.ID])]
	case ir.OpGLoad:
		// The loaded value carries the global's stored taint plus the
		// index taint (a tainted index selects which value is seen).
		return joinTaint(ti.GlobalStored[in.Global], ti.joinArgs(in))
	case ir.OpCall:
		base, src := intrinsicTaint(in.Callee)
		tv := joinTaint(taintVal{t: base, src: src}, ti.joinArgs(in))
		if in.Global != "" {
			// Stateful API results also carry the structure's stored
			// taint (map_find returns what map_insert put in).
			tv = joinTaint(tv, ti.GlobalStored[in.Global])
		}
		return tv
	}
	if in.Op.IsCompute() {
		return ti.joinArgs(in)
	}
	return taintVal{}
}

// solve propagates taint through the handler under the current stored
// taint of globals and reports whether a global's stored taint moved.
// Every node only joins, so a fact a later solve needs is never lost.
func (ti *TaintInfo) solve() bool {
	s := ti.ssa
	changed := false
	join := func(cell *taintVal, tv taintVal) bool {
		j := joinTaint(*cell, tv)
		moved := j != *cell
		*cell = j
		return moved
	}
	// A global's stored taint is module-level: every GLoad sees it.
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
			if join(&ti.vals[n], tv) {
				w.moved(n)
			}
		}
		for _, v := range s.phis[b] {
			for _, o := range s.vers[v].ops {
				set(s.node(v), ti.vals[s.node(o)])
			}
		}
		sv := s.storeBase[b]
		for _, in := range s.c.F.Blocks[b].Instrs {
			if in.ID >= 0 && in.ID < len(s.def) {
				set(in.ID, ti.eval(in))
			}
			switch in.Op {
			case ir.OpLStore:
				set(s.node(sv), ti.operand(in.Args[0]))
				sv++
			case ir.OpGStore:
				store(in.Global, ti.operand(in.Args[0]))
			case ir.OpCall:
				if api, ok := stateAPIOf(in); ok && api.val >= 0 {
					// Stateful writes: the stored value taints the structure.
					store(in.Global, ti.operand(in.Args[api.val]))
				}
			}
		}
		for _, e := range s.sigmas[b] {
			for v := e.first; v < e.first+e.n; v++ {
				set(s.node(v), ti.vals[s.node(s.vers[v].ops[0])])
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

var stateAPIs = map[ir.API]stateAPI{
	ir.APIMapFind: {0, -1, false}, ir.APIMapContains: {0, -1, false},
	ir.APIMapInsert: {0, 1, true}, ir.APIMapRemove: {0, -1, true},
	ir.APIVecGet: {0, -1, false}, ir.APIVecSet: {0, 1, true}, ir.APIVecDelete: {0, -1, true},
	ir.APIMapSize: {-1, -1, false}, ir.APIVecLen: {-1, -1, false}, ir.APIVecPush: {-1, 0, true},
}

// stateAPIOf returns the arguments of call in, if it is a stateful API
// call.
func stateAPIOf(in *ir.Instr) (stateAPI, bool) {
	code, _ := ir.LookupAPI(in.Callee)
	api, ok := stateAPIs[code]
	return api, ok
}

// maxSolves bounds the handler's re-solves. Each re-solve follows one in
// which some global's stored taint rose in a finite lattice (a taint bit,
// or a smaller source name), so the loop ends without it; a frontend
// module converges in a few solves.
const maxSolves = 4096

// ComputeTaint runs the taint fixpoint over the handler and joins every
// stateful access site; LoopClass classifies loops from it. A GStore later
// in block order reaches an earlier GLoad only on a later solve, so the
// handler is re-solved until no global's stored taint moves. The result is
// kept on fx: the linter and the state profile read the same fixpoint.
func ComputeTaint(fx *Facts) *TaintInfo {
	if fx.taint != nil {
		return fx.taint
	}
	s := fx.ssaOf()
	ti := &TaintInfo{
		fx: fx, GlobalStored: map[string]taintVal{}, Accesses: map[string]stateAccess{},
		ssa: s, vals: make([]taintVal, len(s.def)+len(s.vers)),
	}
	for n := 0; n < maxSolves && ti.solve(); n++ {
	}
	ti.record()
	fx.taint = ti
	return ti
}

// record joins every state-access site's key taint under the fixpoint.
func (ti *TaintInfo) record() {
	for _, b := range ti.fx.F.Blocks {
		if !ti.fx.CFG.Reachable(b.Index) {
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
					key = ti.operand(in.Args[idx])
				}
				ti.access(in.Global, in.Op == ir.OpGStore, key)
			case ir.OpCall:
				api, ok := stateAPIOf(in)
				if !ok {
					break
				}
				key := taintVal{}
				if api.key >= 0 {
					key = ti.operand(in.Args[api.key])
				}
				ti.access(in.Global, api.write, key)
			}
		}
	}
}

// LoopClass classifies the loop headed at block head by the joined taint
// of its feasible exit conditions, the loop-bound sink; ok is false when
// no feasible path reaches the loop.
func (ti *TaintInfo) LoopClass(head int) (lt LoopTaint, ok bool) {
	ri := ComputeRanges(ti.fx)
	if !ri.BlockReachable(head) {
		return lt, false
	}
	for _, l := range ti.fx.CFG.NaturalLoops() {
		for _, e := range l.Exits {
			if t := ti.fx.F.Blocks[e.From].Terminator(); l.Head == head && t.Op == ir.OpCondBr && ri.EdgeFeasible(e.From, e.To) {
				lt.Cond = joinTaint(lt.Cond, ti.operand(t.Args[0]))
			}
		}
	}
	return lt, true
}
