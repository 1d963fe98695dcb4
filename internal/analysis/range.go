package analysis

import (
	"math/bits"

	"clara/internal/ir"
)

// This file is the package's one value analysis: an unsigned interval
// propagation over the handler's slot SSA (ssa.go), Wegman–Zadeck
// style: only feasible edges carry values, and a block is re-evaluated when
// a node it reads moves. Every SSA value and slot version gets a
// conservative [lo, hi] range. A constant is the one-point interval, and an
// operation over constants folds exactly (foldOp), so the pass subsumes
// constant propagation. σ versions refine ranges along branch edges (the
// false edge of `limit > 64` caps limit at 64), a branch whose condition is
// constant has one infeasible edge (`while (true)` has no feasible exit),
// loop-header phis widen, and natural-loop trip counts fall out of the
// induction phis. Framework API results take their type's range.
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

// noValue is the empty interval (Lo > Hi), the identity of Union: the
// value of a node no feasible path has evaluated.
var noValue = Interval{^uint64(0), 0}

// typeMax returns the largest value of ty (u64 for Void/unknown widths).
func typeMax(ty ir.Type) uint64 {
	if b := ty.Bits(); b > 0 && b < 64 {
		return 1<<b - 1
	}
	return ^uint64(0)
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

// RangeInfo is the interval fixpoint of the handler, solved over its slot
// SSA.
type RangeInfo struct {
	c   *CFG
	ssa *SSA
	// vals is the interval of every SSA node: instruction values, then
	// slot versions (noValue until a feasible path evaluates the node).
	vals []Interval
	// moves counts each phi's moves; a loop-header phi widens to the full
	// range after widenAfter of them.
	moves []int
	// taken[b] has bit 0 set once b's True (or only) edge is feasible and
	// bit 1 once its False edge is; live[b] once a feasible path reaches b.
	taken []uint8
	live  []bool
	old   []Interval // scratch: a σ edge's values before a visit
}

// widenAfter is the number of moves before a loop-header phi widens to
// the full range; widenHard bounds every other phi (cycles outside natural
// loops can only come from irreducible hand-built IR).
const (
	widenAfter = 4
	widenHard  = 32
)

// ComputeRanges runs the interval fixpoint over the handler, once: it is
// kept on fx and later calls return it, so lint, taint, the frequency
// estimate and SimplifyModule share it.
func ComputeRanges(fx *Facts) *RangeInfo {
	if fx.ranges != nil {
		return fx.ranges
	}
	c, s := fx.CFG, fx.ssaOf()
	ri := &RangeInfo{
		c: c, ssa: s,
		vals:  make([]Interval, len(s.def)+len(s.vers)),
		moves: make([]int, len(s.vers)),
		taken: make([]uint8, len(c.F.Blocks)),
	}
	for i := range ri.vals {
		ri.vals[i] = noValue
	}
	for v := 0; v < c.F.NSlots; v++ {
		ri.vals[s.node(int32(v))] = FullRange // entry values of slots are unknown
	}
	w := s.newWorklist()
	w.reach(0)
	w.run(func(b int) { ri.visit(b, w) })
	ri.live = w.live
	fx.ranges = ri
	return ri
}

// visit evaluates block b: its phis over the feasible incoming edges, its
// instructions in order, the edges its terminator can take, and the σ
// versions on those edges.
func (ri *RangeInfo) visit(b int, w *worklist) {
	s := ri.ssa
	set := func(n int, iv Interval) {
		if ri.vals[n] != iv {
			ri.vals[n] = iv
			w.moved(n)
		}
	}
	limit := widenHard
	for _, l := range ri.c.NaturalLoops() {
		if l.Head == b {
			limit = widenAfter
		}
	}
	for _, v := range s.phis[b] {
		iv, n := noValue, s.node(v)
		for k, p := range s.preds[b] {
			if ri.edgeExec(p, b) {
				iv = iv.Union(ri.vals[s.node(s.vers[v].ops[k])])
			}
		}
		if ri.moves[v] >= limit && iv != ri.vals[n] {
			iv = FullRange
		}
		if iv != ri.vals[n] {
			ri.moves[v]++
			set(n, iv)
		}
	}
	sv := s.storeBase[b]
	for _, in := range ri.c.F.Blocks[b].Instrs {
		if in.ID >= 0 && in.ID < len(s.def) {
			set(in.ID, ri.evalInstr(in))
		}
		switch in.Op {
		case ir.OpLStore:
			set(s.node(sv), ri.operand(in.Args[0]))
			sv++
		case ir.OpBr:
			ri.take(b, 1, in.True, w)
		case ir.OpCondBr:
			c, isConst := ri.operand(in.Args[0]).Const()
			if !isConst || in.True == in.False || c != 0 {
				ri.take(b, 1, in.True, w)
			}
			if (!isConst || c == 0) && in.True != in.False {
				ri.take(b, 2, in.False, w)
			}
		}
	}
	for _, e := range s.sigmas[b] {
		if ri.edgeExec(b, e.to) {
			ri.refine(b, e, w)
		}
	}
}

// take marks the edge of block b selected by bit feasible and queues its
// target.
func (ri *RangeInfo) take(b int, bit uint8, to int, w *worklist) {
	if ri.taken[b]&bit == 0 {
		ri.taken[b] |= bit
		w.reach(to)
	}
}

// edgeExec reports whether the edge from→to has been found feasible (-1
// is the caller, entering the function).
func (ri *RangeInfo) edgeExec(from, to int) bool {
	if from < 0 {
		return true
	}
	t := ri.c.F.Blocks[from].Terminator()
	return t != nil && (t.True == to && ri.taken[from]&1 != 0 ||
		t.Op == ir.OpCondBr && t.False == to && ri.taken[from]&2 != 0)
}

// refine evaluates the σ versions of edge e out of block b: each starts at
// its parent and is narrowed by the edge's comparisons in condition order
// (the false edge of `limit > 64` caps limit at 64). A comparison against
// a slot this edge has already narrowed reads the narrowed interval.
func (ri *RangeInfo) refine(b int, e sigmaEdge, w *worklist) {
	s := ri.ssa
	old := ri.old[:0]
	for v := e.first; v < e.first+e.n; v++ {
		old = append(old, ri.vals[s.node(v)])
		ri.vals[s.node(v)] = ri.vals[s.node(s.vers[v].ops[0])]
	}
	ri.old = old
	for _, k := range e.cons {
		if s.loadVer[k.load] != s.vers[k.ver].ops[0] {
			continue // the slot was stored after the compared load
		}
		other := ri.operand(k.other)
		if ld := s.loadOf(k.other); ld >= 0 {
			if v := s.sigmaOn(b, e.to, s.def[ld].Slot); v >= 0 && s.vers[v].ops[0] == s.loadVer[ld] {
				other = within(ri.vals[s.node(v)], s.def[ld].Ty)
			}
		}
		n := s.node(k.ver)
		ri.vals[n] = refineInterval(ri.vals[n], k.pred, other)
	}
	for i, iv := range old {
		if n := s.node(e.first + int32(i)); ri.vals[n] != iv {
			w.moved(n)
		}
	}
}

// operand returns the interval of an operand.
func (ri *RangeInfo) operand(v ir.Value) Interval {
	switch v.Kind {
	case ir.VConst:
		c := uint64(v.Const) & typeMax(v.Ty)
		return Interval{c, c}
	case ir.VInstr:
		if v.ID >= 0 && v.ID < len(ri.ssa.def) {
			return within(ri.vals[v.ID], v.Ty)
		}
		return typeRange(v.Ty)
	}
	return FullRange
}

// evalInstr computes the result interval of one instruction. Operations
// whose operands are all single values fold exactly.
func (ri *RangeInfo) evalInstr(in *ir.Instr) Interval {
	tr, res := typeRange(in.Ty), ri.operand
	switch {
	case in.Op == ir.OpLLoad:
		return within(ri.vals[ri.ssa.node(ri.ssa.loadVer[in.ID])], in.Ty)
	case !in.Op.IsCompute():
		return tr // global loads and API calls read runtime NF state
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
func roundUpPow2(v uint64) uint64 { return 1<<bits.Len64(v) - 1 }

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
	return ri.live[b]
}

// constBranch returns the only feasible successor of block b's two-way
// branch, if exactly one side is feasible: the one predicate const-branch
// reports and SimplifyModule straightens.
func (ri *RangeInfo) constBranch(b int) (int, bool) {
	t := ri.c.F.Blocks[b].Terminator()
	if !ri.BlockReachable(b) || t == nil || t.Op != ir.OpCondBr || t.True == t.False {
		return 0, false
	}
	switch ri.taken[b] {
	case 1:
		return t.True, true
	case 2:
		return t.False, true
	}
	return 0, false
}

// EdgeFeasible reports whether the edge from→to can be taken under the
// computed ranges.
func (ri *RangeInfo) EdgeFeasible(from, to int) bool {
	return ri.BlockReachable(from) && ri.edgeExec(from, to)
}

// ValRange returns the computed interval of SSA value id.
func (ri *RangeInfo) ValRange(id int) Interval {
	if id >= 0 && id < len(ri.ssa.def) && ri.vals[id].Lo <= ri.vals[id].Hi {
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
// condition comparing an induction variable (a header phi whose in-loop
// operands are `phi + c`) against a bound with a known range. The bound is
// computed once per loop and kept on it.
func (ri *RangeInfo) InferTripCount(l *Loop) (tc TripCount) {
	if l.trip != nil {
		return *l.trip
	}
	defer func() { l.trip = &tc }()
	tc.Max = ^uint64(0)
	for _, e := range l.Exits {
		if !ri.EdgeFeasible(e.From, e.To) {
			continue
		}
		tc.HasFeasibleExit = true
		// The loop leaves when the branch takes the exit side; the
		// condition's truth on that side is what bounds the loop.
		if term := ri.c.F.Blocks[e.From].Terminator(); term.Op == ir.OpCondBr {
			if n, ok := ri.exitBound(l, term.Args[0], e.To == term.True); ok && n <= tc.Max {
				tc.Bounded, tc.Max = true, n
			}
		}
	}
	if !tc.Bounded {
		tc.Max = 0
	}
	return tc
}

// exitBound tries to bound the iterations before cond reaches the truth
// value that exits the loop.
func (ri *RangeInfo) exitBound(l *Loop, cond ir.Value, exitTruth bool) (uint64, bool) {
	def := ri.ssa.instr(cond)
	switch {
	case def == nil:
	case def.Op == ir.OpAnd && !exitTruth, def.Op == ir.OpOr && exitTruth:
		// Either conjunct failing (either disjunct holding) exits, so
		// either bound limits the trip count.
		if n, ok := ri.exitBound(l, def.Args[0], exitTruth); ok {
			return n, true
		}
		return ri.exitBound(l, def.Args[1], exitTruth)
	case def.Op == ir.OpICmp:
		// Normalize to the *continue* condition: the comparison that holds
		// while the loop keeps running.
		pred := def.Pred
		if exitTruth {
			pred = pred.Negate()
		}
		if n, ok := ri.inductionBound(l, def.Args[0], pred, ri.operand(def.Args[1])); ok {
			return n, true
		}
		return ri.inductionBound(l, def.Args[1], swapPred(pred), ri.operand(def.Args[0]))
	}
	return 0, false
}

// steps accumulates an induction variable's increments: the smallest and
// largest step and the tightest type maximum among the adds.
type steps struct{ lo, hi, tmax uint64 }

// inductionBound bounds iterations of a loop that continues while
// `v PRED bound` holds, where v loads a slot whose phi at the loop header
// is an induction variable. A bound is refused when the last value that
// keeps the loop running, plus a step, exceeds the type maximum of the
// increment: the counter would wrap and the loop need never exit.
func (ri *RangeInfo) inductionBound(l *Loop, v ir.Value, pred ir.Pred, bound Interval) (uint64, bool) {
	s := ri.ssa
	ld := s.loadOf(v)
	if ld < 0 {
		return 0, false
	}
	p := s.phiAt(l.Head, s.def[ld].Slot)
	if p < 0 {
		return 0, false // loop-invariant slots never advance the loop
	}
	st := steps{lo: ^uint64(0), tmax: ^uint64(0)}
	seen := make([]bool, len(s.vers))
	init, haveInit := noValue, false
	for k, pre := range s.preds[l.Head] {
		switch op := s.vers[p].ops[k]; {
		case pre >= 0 && l.Contains(pre):
			if !ri.stepOf(l, p, op, &st, seen) {
				return 0, false
			}
		case pre >= 0 && ri.BlockReachable(pre):
			init, haveInit = init.Union(ri.vals[s.node(op)]), true
		}
	}
	if !haveInit || st.lo == ^uint64(0) {
		return 0, false
	}
	// last is the largest value for which the loop keeps running.
	var last uint64
	switch pred {
	case ir.PredULT:
		if bound.Hi == 0 {
			return 0, true
		}
		last = bound.Hi - 1
	case ir.PredULE:
		last = bound.Hi
	case ir.PredNE:
		// i != N with unit step terminates at N only if every start is at
		// or below N; a start above it wraps through the whole type.
		cb, isConst := bound.Const()
		if !isConst || st.lo != 1 || init.Hi > cb {
			return 0, false
		}
		if cb == 0 {
			return 0, true
		}
		last = cb - 1
	default:
		return 0, false
	}
	if last < init.Lo {
		return 0, true // condition already false on entry
	}
	if st.hi > st.tmax || last > st.tmax-st.hi {
		return 0, false // last + step wraps past the type maximum
	}
	return (last-init.Lo)/st.lo + 1, true
}

// stepOf matches version v, an in-loop definition reaching header phi p's
// back edge, against `p + c`: p itself, a σ-copy or in-loop phi of such
// versions, or a store of `load + c` (c > 0) whose load reads one. It
// folds each increment into st; seen cuts cycles through inner loops.
func (ri *RangeInfo) stepOf(l *Loop, p, v int32, st *steps, seen []bool) bool {
	s := ri.ssa
	if v == p || seen[v] {
		return true
	}
	seen[v] = true
	ver := s.vers[v]
	switch {
	case ver.kind == verEntry || !l.Contains(ver.block):
		return false
	case ver.kind == verSigma:
		return ri.stepOf(l, p, ver.ops[0], st, seen)
	case ver.kind == verPhi:
		for _, o := range ver.ops {
			if !ri.stepOf(l, p, o, st, seen) {
				return false
			}
		}
		return true
	}
	add := s.instr(ver.store.Args[0])
	if add == nil || add.Op != ir.OpAdd {
		return false
	}
	for i := range add.Args {
		x, c := add.Args[i], add.Args[1-i]
		ld := s.loadOf(x)
		if c.Kind != ir.VConst || ld < 0 || s.def[ld].Slot != ver.slot {
			continue
		}
		step := uint64(c.Const) & typeMax(c.Ty)
		if step == 0 {
			return false
		}
		st.lo, st.hi, st.tmax = min(st.lo, step), max(st.hi, step), min(st.tmax, typeMax(add.Ty))
		return ri.stepOf(l, p, s.loadVer[ld], st, seen)
	}
	return false
}
