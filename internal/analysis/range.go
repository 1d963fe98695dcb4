package analysis

import (
	"clara/internal/ir"
)

// This file instantiates the dataflow framework as the package's one value
// analysis: an interprocedural unsigned interval propagation. Every slot
// and every SSA value gets a conservative [lo, hi] range. A constant is the
// one-point interval, and an operation over constants folds exactly
// (foldOp), so the pass subsumes constant propagation. Branch edges refine
// ranges (the false edge of `limit > 64` caps limit at 64), a branch whose
// condition is constant has one infeasible edge (`while (true)` has no
// feasible exit), and natural-loop trip counts fall out of the
// induction-variable ranges. Across functions, parameter intervals join
// over in-module call sites and return intervals summarize callees,
// iterated to a fixpoint over call-graph SCCs (CallGraph.FixpointSCC).
//
// The facts feed const-branch and dead-code (lint.go), SimplifyModule
// (simplify.go), trip counts, taint's loop classes and the static
// frequencies (freq.go).

// Interval is an unsigned value range [Lo, Hi], inclusive.
type Interval struct {
	Lo, Hi uint64
}

// FullRange is the unconstrained interval.
var FullRange = Interval{0, ^uint64(0)}

// noValue is the empty interval (Lo > Hi), the identity of Union: a
// parameter no call site has bound yet, or a return no path has reached.
var noValue = Interval{^uint64(0), 0}

// typeMax returns the largest value of ty (u64 for Void/unknown widths).
func typeMax(ty ir.Type) uint64 {
	if ty == ir.Void {
		return ^uint64(0)
	}
	bits := ty.Bits()
	if bits >= 64 {
		return ^uint64(0)
	}
	return (1 << bits) - 1
}

func typeRange(ty ir.Type) Interval { return Interval{0, typeMax(ty)} }

// Const reports whether the interval is a single value.
func (iv Interval) Const() (uint64, bool) { return iv.Lo, iv.Lo == iv.Hi }

// Union returns the smallest interval containing both.
func (iv Interval) Union(o Interval) Interval {
	if o.Lo < iv.Lo {
		iv.Lo = o.Lo
	}
	if o.Hi > iv.Hi {
		iv.Hi = o.Hi
	}
	return iv
}

// Intersect clamps iv to o; empty intersections collapse to o's nearest
// bound (callers use feasibility separately).
func (iv Interval) Intersect(o Interval) (Interval, bool) {
	if o.Lo > iv.Lo {
		iv.Lo = o.Lo
	}
	if o.Hi < iv.Hi {
		iv.Hi = o.Hi
	}
	if iv.Lo > iv.Hi {
		return iv, false
	}
	return iv, true
}

// within returns iv clamped to ty's range, or the whole range if they do
// not overlap (an empty iv included).
func within(iv Interval, ty ir.Type) Interval {
	if r, ok := iv.Intersect(typeRange(ty)); ok {
		return r
	}
	return typeRange(ty)
}

// summary is one interprocedural cell: a parameter or a return interval.
// Intervals have no finite height (a self-recursive f(n) calling f(n+1)
// would grow the parameter forever), so a cell widens to its type range
// once it has moved widenAfter times, as loop heads do.
type summary struct {
	iv    Interval
	moves int
}

// add joins v into the cell of type ty and reports whether the cell moved.
func (s *summary) add(v Interval, ty ir.Type) bool {
	j := s.iv.Union(v)
	if j != s.iv && s.moves >= widenAfter {
		j = typeRange(ty)
	}
	if j == s.iv {
		return false
	}
	s.iv = j
	s.moves++
	return true
}

// rangeState is the per-point lattice value: reachability plus one
// interval per slot.
type rangeState struct {
	reachable bool
	slots     []Interval
}

func (s rangeState) clone() rangeState {
	return rangeState{reachable: s.reachable, slots: append([]Interval(nil), s.slots...)}
}

// RangeInfo is the interval fixpoint of one function of a call graph.
type RangeInfo struct {
	cg *CallGraph
	c  *CFG
	// instrByID resolves a VInstr operand to its defining instruction.
	instrByID []*ir.Instr
	blockOf   []int // defining block of each value ID
	indexOf   []int // instruction index within the block
	// vals[id] is the final over-approximate interval of each SSA value.
	vals []Interval
	// sol is nil until a reachable call site enters the function (roots
	// are entered from the start).
	sol *Solution[rangeState]
	// params joins the arguments of every reachable in-module call site
	// (a root's are its type range); ret joins every reachable return.
	params  []summary
	ret     summary
	root    bool
	entered bool
	solves  int
}

type rangeProblem struct {
	ri *RangeInfo
	// visits counts Transfer applications per block; past the threshold
	// the out-state is widened against the previous one to force
	// convergence of loop counters.
	visits  []int
	prevOut []rangeState
	// isHead marks natural-loop headers, the only widening points: widening
	// body blocks too would destroy loop bounds that merely oscillate as
	// edge refinements shift.
	isHead []bool
	// changed reports that a cell another solve reads has moved: a
	// callee's parameter, or a return that has callers.
	changed bool
}

// widenAfter is the number of fixpoint visits before a loop header's slot
// ranges widen to full range (and the number of moves before an
// interprocedural cell does); widenHard is the fallback for every other
// block (cycles outside natural loops can only come from irreducible
// hand-built IR).
const (
	widenAfter = 4
	widenHard  = 32
)

// ComputeRanges runs the interval fixpoint over the module, once: it is
// kept on cg and later calls return it (node i's function is entry i), so
// lint, taint, the frequency estimate and SimplifyModule share it. Each
// step re-solves one function under the current parameter and return
// cells and reports a change only when a cell another solve reads has
// moved, so the single-function modules the frontend emits solve once.
func ComputeRanges(cg *CallGraph) []*RangeInfo {
	if cg.ranges != nil {
		return cg.ranges
	}
	cg.ranges = make([]*RangeInfo, len(cg.Funcs))
	for node, c := range cg.CFGs {
		n := c.F.NumVals
		ri := &RangeInfo{
			cg: cg, c: c,
			instrByID: make([]*ir.Instr, n),
			blockOf:   make([]int, n),
			indexOf:   make([]int, n),
			vals:      make([]Interval, n),
			params:    make([]summary, len(c.F.Params)),
			ret:       summary{iv: noValue},
			root:      len(cg.Callers[node]) == 0,
		}
		for _, b := range c.F.Blocks {
			for ii, in := range b.Instrs {
				if in.ID >= 0 && in.ID < n {
					ri.instrByID[in.ID] = in
					ri.blockOf[in.ID] = b.Index
					ri.indexOf[in.ID] = ii
				}
			}
		}
		for i := range ri.vals {
			ri.vals[i] = FullRange
		}
		// Roots (no in-module callers: the packet handler, or any
		// externally invoked entry) take arbitrary runtime arguments.
		for i, p := range c.F.Params {
			ri.params[i].iv = noValue
			if ri.root {
				ri.params[i].iv = typeRange(p.Ty)
			}
		}
		ri.entered = ri.root
		cg.ranges[node] = ri
	}
	cg.FixpointSCC(func(node int) bool { return cg.ranges[node].solve() })
	return cg.ranges
}

// solve re-solves the function under the current cells, if any reachable
// call site has entered it, and reports whether a cell another solve
// reads has moved.
func (ri *RangeInfo) solve() bool {
	if !ri.entered {
		return false
	}
	n := len(ri.c.F.Blocks)
	p := &rangeProblem{
		ri:      ri,
		visits:  make([]int, n),
		prevOut: make([]rangeState, n),
		isHead:  make([]bool, n),
	}
	for _, l := range ri.c.NaturalLoops() {
		p.isHead[l.Head] = true
	}
	ri.sol = Solve[rangeState](ri.c, Forward, p)
	ri.solves++
	return p.changed
}

func (p *rangeProblem) Boundary() rangeState {
	s := rangeState{reachable: true, slots: make([]Interval, p.ri.c.F.NSlots)}
	for i := range s.slots {
		s.slots[i] = FullRange // entry values of slots are unknown
	}
	return s
}

func (p *rangeProblem) Bottom() rangeState { return rangeState{} }

func (p *rangeProblem) Meet(a, b rangeState) rangeState {
	if !b.reachable {
		return a
	}
	if !a.reachable {
		return b.clone()
	}
	for i := range a.slots {
		a.slots[i] = a.slots[i].Union(b.slots[i])
	}
	return a
}

func (p *rangeProblem) Equal(a, b rangeState) bool {
	if a.reachable != b.reachable {
		return false
	}
	for i := range a.slots {
		if a.slots[i] != b.slots[i] {
			return false
		}
	}
	return true
}

func (p *rangeProblem) Transfer(b *ir.Block, in rangeState) rangeState {
	if !in.reachable {
		return rangeState{}
	}
	out := in.clone()
	ri := p.ri
	res := func(v ir.Value) Interval { return ri.operand(v, out.slots) }
	for _, instr := range b.Instrs {
		iv := ri.evalInstr(instr, out.slots, res)
		if instr.ID >= 0 && instr.ID < len(ri.vals) {
			ri.vals[instr.ID] = iv
		}
		switch instr.Op {
		case ir.OpLStore:
			out.slots[instr.Slot] = res(instr.Args[0])
		case ir.OpCall:
			p.enter(instr, res)
		case ir.OpRet:
			if len(instr.Args) > 0 && ri.ret.add(res(instr.Args[0]), ri.c.F.Ret) && !ri.root {
				p.changed = true
			}
		}
	}
	p.visits[b.Index]++
	threshold := widenHard
	if p.isHead[b.Index] {
		threshold = widenAfter
	}
	if p.visits[b.Index] > threshold && p.prevOut[b.Index].reachable {
		prev := p.prevOut[b.Index]
		for i := range out.slots {
			if out.slots[i] != prev.slots[i] {
				out.slots[i] = FullRange
			}
		}
	}
	p.prevOut[b.Index] = out.clone()
	return out
}

// enter binds the arguments of a call to a sibling function into the
// callee's parameter cells.
func (p *rangeProblem) enter(in *ir.Instr, res func(ir.Value) Interval) {
	node := p.ri.cg.CalleeNode(in)
	if node < 0 {
		return // intrinsics read packets and state
	}
	callee := p.ri.cg.ranges[node]
	if !callee.entered {
		callee.entered, p.changed = true, true
	}
	for i, a := range in.Args {
		if i < len(callee.params) && callee.params[i].add(res(a), callee.c.F.Params[i].Ty) {
			p.changed = true
		}
	}
}

// operand returns the interval of an operand under the given slot state.
func (ri *RangeInfo) operand(v ir.Value, slots []Interval) Interval {
	switch v.Kind {
	case ir.VConst:
		c := uint64(v.Const) & typeMax(v.Ty)
		return Interval{c, c}
	case ir.VParam:
		if v.ID >= 0 && v.ID < len(ri.params) {
			return within(ri.params[v.ID].iv, v.Ty)
		}
		return typeRange(v.Ty)
	case ir.VInstr:
		if v.ID >= 0 && v.ID < len(ri.vals) {
			return within(ri.vals[v.ID], v.Ty)
		}
		return typeRange(v.Ty)
	}
	return FullRange
}

// evalInstr computes the result interval of one instruction, resolving
// operands through res. Operations whose operands are all single values
// fold exactly.
func (ri *RangeInfo) evalInstr(in *ir.Instr, slots []Interval, res func(ir.Value) Interval) Interval {
	tr := typeRange(in.Ty)
	switch {
	case in.Op == ir.OpLLoad:
		return within(slots[in.Slot], in.Ty)
	case in.Op == ir.OpCall:
		if node := ri.cg.CalleeNode(in); node >= 0 {
			return within(ri.cg.ranges[node].ret.iv, in.Ty)
		}
		return tr
	case !in.Op.IsCompute():
		return tr // global loads read runtime NF state
	}
	a, b := res(in.Args[0]), Interval{}
	if len(in.Args) > 1 {
		b = res(in.Args[1])
	}
	if ca, ok := a.Const(); ok {
		if cb, ok := b.Const(); ok {
			c := foldOp(in, ca, cb)
			return Interval{c, c}
		}
	}
	switch in.Op {
	case ir.OpZExt:
		return within(a, in.Ty)
	case ir.OpTrunc:
		if a.Hi <= tr.Hi {
			return a // narrowing preserved the value
		}
	case ir.OpICmp:
		if r, ok := evalICmp(in.Pred, a, b); ok {
			if r {
				return Interval{1, 1}
			}
			return Interval{0, 0}
		}
		return Interval{0, 1}
	case ir.OpAdd:
		if hi := a.Hi + b.Hi; hi >= a.Hi && hi <= tr.Hi { // no overflow
			return Interval{a.Lo + b.Lo, hi}
		}
	case ir.OpSub:
		if a.Lo >= b.Hi { // no unsigned underflow possible
			return Interval{a.Lo - b.Hi, a.Hi - b.Lo}
		}
	case ir.OpMul:
		if a.Hi == 0 || b.Hi == 0 || a.Hi <= tr.Hi/b.Hi { // no overflow
			return Interval{a.Lo * b.Lo, a.Hi * b.Hi}
		}
	case ir.OpUDiv:
		if b.Lo > 0 { // division by zero yields all-ones on the NIC
			return Interval{a.Lo / b.Hi, a.Hi / b.Lo}
		}
	case ir.OpURem:
		if b.Hi > 0 {
			return Interval{0, b.Hi - 1}
		}
		return Interval{0, 0}
	case ir.OpAnd:
		return Interval{0, min(a.Hi, b.Hi)}
	case ir.OpOr, ir.OpXor:
		return Interval{0, min(roundUpPow2(a.Hi|b.Hi), tr.Hi)}
	case ir.OpShl:
		if sh, ok := b.Const(); ok && sh < 64 && a.Hi <= tr.Hi>>sh {
			return Interval{a.Lo << sh, a.Hi << sh}
		}
	case ir.OpLShr:
		if sh, ok := b.Const(); ok && sh < 64 {
			return Interval{a.Lo >> sh, a.Hi >> sh}
		}
		return Interval{0, a.Hi}
	}
	return tr
}

// foldOp folds one compute instruction over constant operands, mirroring
// the interpreter's exact semantics (width masking, shift-amount &63,
// division by zero yielding all-ones like the NIC firmware).
func foldOp(in *ir.Instr, a, b uint64) uint64 {
	mask := typeMax(in.Ty)
	switch in.Op {
	case ir.OpAdd:
		return (a + b) & mask
	case ir.OpSub:
		return (a - b) & mask
	case ir.OpMul:
		return (a * b) & mask
	case ir.OpUDiv:
		if b == 0 {
			return mask
		}
		return (a / b) & mask
	case ir.OpURem:
		if b == 0 {
			return 0
		}
		return (a % b) & mask
	case ir.OpAnd:
		return a & b & mask
	case ir.OpOr:
		return (a | b) & mask
	case ir.OpXor:
		return (a ^ b) & mask
	case ir.OpShl:
		return (a << (b & 63)) & mask
	case ir.OpLShr:
		return (a >> (b & 63)) & mask
	case ir.OpNot:
		return ^a & mask
	case ir.OpZExt, ir.OpTrunc:
		return a & mask
	case ir.OpICmp:
		if r, _ := evalICmp(in.Pred, Interval{a, a}, Interval{b, b}); r {
			return 1
		}
	}
	return 0
}

// roundUpPow2 returns the smallest 2^k-1 value >= v (a sound upper bound
// for or/xor results).
func roundUpPow2(v uint64) uint64 {
	r := uint64(0)
	for r < v {
		r = r<<1 | 1
	}
	return r
}

// evalICmp decides a comparison of two intervals when they don't overlap
// ambiguously. ok=false means both outcomes are possible.
func evalICmp(p ir.Pred, a, b Interval) (res, ok bool) {
	switch p {
	case ir.PredEQ:
		if ca, okA := a.Const(); okA {
			if cb, okB := b.Const(); okB {
				return ca == cb, true
			}
		}
		if a.Hi < b.Lo || b.Hi < a.Lo {
			return false, true
		}
	case ir.PredNE:
		if r, okr := evalICmp(ir.PredEQ, a, b); okr {
			return !r, true
		}
	case ir.PredULT:
		if a.Hi < b.Lo {
			return true, true
		}
		if a.Lo >= b.Hi {
			return false, true
		}
	case ir.PredULE:
		if a.Hi <= b.Lo {
			return true, true
		}
		if a.Lo > b.Hi {
			return false, true
		}
	case ir.PredUGT:
		if r, okr := evalICmp(ir.PredULE, a, b); okr {
			return !r, true
		}
	case ir.PredUGE:
		if r, okr := evalICmp(ir.PredULT, a, b); okr {
			return !r, true
		}
	}
	return false, false
}

// TransferEdge refines the state flowing along one CFG edge: constant
// branch conditions kill infeasible edges, and comparisons against slot
// loads narrow the slot's range on each side.
func (p *rangeProblem) TransferEdge(from, to int, out rangeState) rangeState {
	term := p.ri.c.F.Blocks[from].Terminator()
	if !out.reachable || term == nil || term.Op != ir.OpCondBr || term.True == term.False {
		return out
	}
	if taken, ok := p.ri.decide(from, out); ok && taken != to {
		return rangeState{} // edge infeasible
	}
	refined := out.clone()
	p.ri.refineCond(from, term.Args[0], to == term.True, &refined)
	return refined
}

// decide returns the successor the two-way branch ending block from must
// take when its condition is constant under the end-of-block state out.
// Feasibility is decided from that state alone: the cached value
// intervals can still grow after this block's out-state has converged,
// and a stale constant would wrongly kill the edge.
func (ri *RangeInfo) decide(from int, out rangeState) (int, bool) {
	term := ri.c.F.Blocks[from].Terminator()
	if !out.reachable || term == nil || term.Op != ir.OpCondBr || term.True == term.False {
		return 0, false
	}
	iv, exact := ri.evalAt(from, term.Args[0], out.slots)
	c, ok := iv.Const()
	switch {
	case !exact || !ok:
		return 0, false
	case c == 0:
		return term.False, true
	}
	return term.True, true
}

// evalAt re-evaluates v against the end-of-block slot state, walking the
// definition chain within block. ok=false means the value cannot be
// soundly reconstructed there (cross-block def, or a load whose slot was
// overwritten later in the block).
func (ri *RangeInfo) evalAt(block int, v ir.Value, slots []Interval) (Interval, bool) {
	if v.Kind != ir.VInstr {
		return ri.operand(v, slots), true
	}
	def := ri.instrByID[v.ID]
	if def == nil || ri.blockOf[v.ID] != block ||
		def.Op == ir.OpLLoad && ri.storedBetween(block, ri.indexOf[v.ID], def.Slot) {
		return FullRange, false
	}
	exact := true
	iv := ri.evalInstr(def, slots, func(a ir.Value) Interval {
		r, ok := ri.evalAt(block, a, slots)
		exact = exact && ok
		return r
	})
	return iv, exact
}

// refineCond narrows slot ranges in st under the assumption that cond
// evaluates to truth on this edge.
func (ri *RangeInfo) refineCond(block int, cond ir.Value, truth bool, st *rangeState) {
	if cond.Kind != ir.VInstr {
		return
	}
	def := ri.instrByID[cond.ID]
	if def == nil || ri.blockOf[cond.ID] != block {
		// Only same-block conditions are refined: a cross-block def could
		// be stale against interleaved stores.
		return
	}
	switch def.Op {
	case ir.OpAnd:
		if truth { // both conjuncts hold
			ri.refineCond(block, def.Args[0], true, st)
			ri.refineCond(block, def.Args[1], true, st)
		}
	case ir.OpOr:
		if !truth { // both disjuncts fail
			ri.refineCond(block, def.Args[0], false, st)
			ri.refineCond(block, def.Args[1], false, st)
		}
	case ir.OpICmp:
		pred := def.Pred
		if !truth {
			pred = pred.Negate()
		}
		lhs, rhs := def.Args[0], def.Args[1]
		if rIv, exact := ri.evalAt(block, rhs, st.slots); exact {
			if slot, idx, ok := ri.slotOperand(block, lhs); ok && !ri.storedBetween(block, idx, slot) {
				st.slots[slot] = refineInterval(st.slots[slot], pred, rIv)
			}
		}
		if lIv, exact := ri.evalAt(block, lhs, st.slots); exact {
			if slot, idx, ok := ri.slotOperand(block, rhs); ok && !ri.storedBetween(block, idx, slot) {
				st.slots[slot] = refineInterval(st.slots[slot], swapPred(pred), lIv)
			}
		}
	}
}

// slotOperand resolves an operand to the stack slot it loads (directly or
// through a zext), requiring the load to live in the given block so the
// refinement is anchored to current state.
func (ri *RangeInfo) slotOperand(block int, v ir.Value) (slot, instrIdx int, ok bool) {
	for v.Kind == ir.VInstr {
		def := ri.instrByID[v.ID]
		if def == nil || ri.blockOf[v.ID] != block {
			return 0, 0, false
		}
		switch def.Op {
		case ir.OpLLoad:
			return def.Slot, ri.indexOf[v.ID], true
		case ir.OpZExt:
			v = def.Args[0]
		default:
			return 0, 0, false
		}
	}
	return 0, 0, false
}

// storedBetween reports whether slot is stored after instruction index idx
// in block (which would invalidate an edge refinement based on the load).
func (ri *RangeInfo) storedBetween(block, idx, slot int) bool {
	instrs := ri.c.F.Blocks[block].Instrs
	for i := idx + 1; i < len(instrs); i++ {
		if instrs[i].Op == ir.OpLStore && instrs[i].Slot == slot {
			return true
		}
	}
	return false
}

// refineInterval narrows iv under `iv PRED rhs`.
func refineInterval(iv Interval, pred ir.Pred, rhs Interval) Interval {
	switch pred {
	case ir.PredULT:
		if rhs.Hi > 0 && rhs.Hi-1 < iv.Hi {
			iv.Hi = rhs.Hi - 1
		}
	case ir.PredULE:
		if rhs.Hi < iv.Hi {
			iv.Hi = rhs.Hi
		}
	case ir.PredUGT:
		if rhs.Lo < ^uint64(0) && rhs.Lo+1 > iv.Lo {
			iv.Lo = rhs.Lo + 1
		}
	case ir.PredUGE:
		if rhs.Lo > iv.Lo {
			iv.Lo = rhs.Lo
		}
	case ir.PredEQ:
		if r, ok := iv.Intersect(rhs); ok {
			return r
		}
	}
	if iv.Lo > iv.Hi { // refinement emptied the range; keep a point
		iv.Lo = iv.Hi
	}
	return iv
}

// swapPred mirrors a predicate across its operands (a PRED b == b
// swapPred(PRED) a).
func swapPred(p ir.Pred) ir.Pred {
	switch p {
	case ir.PredULT:
		return ir.PredUGT
	case ir.PredULE:
		return ir.PredUGE
	case ir.PredUGT:
		return ir.PredULT
	case ir.PredUGE:
		return ir.PredULE
	}
	return p
}

// BlockReachable reports whether range propagation found any feasible path
// to block b.
func (ri *RangeInfo) BlockReachable(b int) bool {
	return ri.sol != nil && (b == 0 || ri.sol.Out[b].reachable)
}

// constBranch returns the only feasible successor of block b's two-way
// branch, if exactly one side is feasible: the one predicate const-branch
// reports and SimplifyModule straightens.
func (ri *RangeInfo) constBranch(b int) (int, bool) {
	if ri.sol == nil {
		return 0, false
	}
	return ri.decide(b, ri.sol.Out[b])
}

// EdgeFeasible reports whether the edge from→to can be taken under the
// computed ranges.
func (ri *RangeInfo) EdgeFeasible(from, to int) bool {
	taken, decided := ri.constBranch(from)
	return ri.BlockReachable(from) && (!decided || taken == to)
}

// ValRange returns the computed interval of SSA value id.
func (ri *RangeInfo) ValRange(id int) Interval {
	if id >= 0 && id < len(ri.vals) {
		return ri.vals[id]
	}
	return FullRange
}

// ---------------------------------------------------------------------------
// Loop trip-count inference.

// TripCount bounds a natural loop's iterations.
type TripCount struct {
	// Bounded reports whether a finite trip bound was inferred.
	Bounded bool
	// Max is the inferred upper bound on iterations (valid if Bounded).
	Max uint64
	// HasFeasibleExit reports whether any exit edge survives range
	// propagation (false for while(true)-style loops).
	HasFeasibleExit bool
}

// InferTripCount bounds the iterations of loop l: it looks for an exit
// condition governed by an induction slot (every in-loop store is a
// constant-step increment) whose bound has a known range at the exit test.
// The bound is computed once per loop and kept on it.
func (ri *RangeInfo) InferTripCount(l *Loop) (tc TripCount) {
	if l.trip != nil {
		return *l.trip
	}
	defer func() { l.trip = &tc }()
	for _, e := range l.Exits {
		if ri.EdgeFeasible(e.From, e.To) {
			tc.HasFeasibleExit = true
			break
		}
	}
	if !tc.HasFeasibleExit {
		return tc
	}
	// Initial slot ranges entering the loop.
	pres := ri.c.Preheaders(l)
	best := ^uint64(0)
	found := false
	for _, e := range l.Exits {
		term := ri.c.F.Blocks[e.From].Terminator()
		if term == nil || term.Op != ir.OpCondBr || !ri.EdgeFeasible(e.From, e.To) {
			continue
		}
		// The loop leaves when the branch takes the exit side; the
		// condition's truth on that side is what bounds the loop.
		exitOnTrue := e.To == term.True
		if n, ok := ri.exitBound(l, e.From, term.Args[0], exitOnTrue, pres); ok && n < best {
			best = n
			found = true
		}
	}
	if found {
		tc.Bounded = true
		tc.Max = best
	}
	return tc
}

// exitBound tries to bound the iterations before cond reaches the truth
// value that exits the loop.
func (ri *RangeInfo) exitBound(l *Loop, block int, cond ir.Value, exitTruth bool, pres []int) (uint64, bool) {
	if cond.Kind != ir.VInstr {
		return 0, false
	}
	def := ri.instrByID[cond.ID]
	if def == nil || ri.blockOf[cond.ID] != block {
		return 0, false
	}
	switch def.Op {
	case ir.OpAnd:
		if !exitTruth {
			// Loop continues while both conjuncts hold: either conjunct
			// failing exits, so either bound limits the trip count.
			if n, ok := ri.exitBound(l, block, def.Args[0], false, pres); ok {
				return n, true
			}
			return ri.exitBound(l, block, def.Args[1], false, pres)
		}
	case ir.OpOr:
		if exitTruth {
			if n, ok := ri.exitBound(l, block, def.Args[0], true, pres); ok {
				return n, true
			}
			return ri.exitBound(l, block, def.Args[1], true, pres)
		}
	case ir.OpICmp:
		// Normalize to the *continue* condition: the comparison that holds
		// while the loop keeps running.
		pred := def.Pred
		if exitTruth {
			pred = pred.Negate()
		}
		lhs, rhs := def.Args[0], def.Args[1]
		if slot, _, ok := ri.slotOperand(block, lhs); ok {
			if n, ok2 := ri.inductionBound(l, slot, pred, ri.operand(rhs, ri.sol.In[block].slots), pres); ok2 {
				return n, true
			}
		}
		if slot, _, ok := ri.slotOperand(block, rhs); ok {
			if n, ok2 := ri.inductionBound(l, slot, swapPred(pred), ri.operand(lhs, ri.sol.In[block].slots), pres); ok2 {
				return n, true
			}
		}
	}
	return 0, false
}

// inductionBound bounds iterations of a loop that continues while
// `slot PRED bound` holds, given that every in-loop store to slot is a
// constant-step increment (step > 0).
func (ri *RangeInfo) inductionBound(l *Loop, slot int, pred ir.Pred, bound Interval, pres []int) (uint64, bool) {
	step, ok := ri.inductionStep(l, slot)
	if !ok {
		return 0, false
	}
	// Initial value entering the loop.
	init := Interval{}
	haveInit := false
	for _, p := range pres {
		st := ri.sol.Out[p]
		if !st.reachable {
			continue
		}
		if !haveInit {
			init = st.slots[slot]
			haveInit = true
		} else {
			init = init.Union(st.slots[slot])
		}
	}
	if !haveInit {
		return 0, false
	}
	var limit uint64
	switch pred {
	case ir.PredULT:
		limit = bound.Hi
	case ir.PredULE:
		if bound.Hi == ^uint64(0) {
			return 0, false
		}
		limit = bound.Hi + 1
	case ir.PredNE:
		// i != N with unit step terminates at N only if every start is at
		// or below N; a start above it wraps through the whole type.
		cb, isConst := bound.Const()
		if !isConst || step != 1 || init.Hi > cb {
			return 0, false
		}
		limit = cb
	default:
		return 0, false
	}
	if limit <= init.Lo {
		return 0, true // condition already false on entry
	}
	return (limit - init.Lo + step - 1) / step, true
}

// inductionStep checks that every store to slot inside the loop is
// `slot = slot + c` (c > 0, via load of the same slot) and returns the
// smallest step.
func (ri *RangeInfo) inductionStep(l *Loop, slot int) (uint64, bool) {
	step := ^uint64(0)
	stores := 0
	for _, bi := range l.Blocks {
		for _, in := range ri.c.F.Blocks[bi].Instrs {
			if in.Op != ir.OpLStore || in.Slot != slot {
				continue
			}
			stores++
			s, ok := ri.addConstStep(bi, in.Args[0], slot)
			if !ok || s == 0 {
				return 0, false
			}
			if s < step {
				step = s
			}
		}
	}
	if stores == 0 {
		return 0, false // loop-invariant slots never advance the loop
	}
	return step, true
}

// addConstStep matches v against `lload slot + const` (either operand
// order) inside block bi.
func (ri *RangeInfo) addConstStep(bi int, v ir.Value, slot int) (uint64, bool) {
	if v.Kind != ir.VInstr {
		return 0, false
	}
	def := ri.instrByID[v.ID]
	if def == nil || def.Op != ir.OpAdd {
		return 0, false
	}
	match := func(a, b ir.Value) (uint64, bool) {
		if b.Kind != ir.VConst {
			return 0, false
		}
		if s, _, ok := ri.slotOperand(ri.blockOf[v.ID], a); ok && s == slot {
			return uint64(b.Const) & typeMax(b.Ty), true
		}
		return 0, false
	}
	if s, ok := match(def.Args[0], def.Args[1]); ok {
		return s, true
	}
	return match(def.Args[1], def.Args[0])
}
