package analysis

import "clara/internal/ir"

// This file builds the one sparse form every analysis reads: SSA over a
// function's stack slots. The IR keeps locals as -O0 stack slots, so a
// slot's value is rebuilt here once per function. Each LStore, each phi at
// an iterated dominance frontier (Cytron et al., TOPLAS 1991), each σ-copy
// a two-way branch refines on one of its edges (e-SSA, as in ABCD) and the
// undefined value a slot holds at function entry is a version of its slot,
// and each LLoad reads exactly one version. Intervals (range.go), taint
// (taint.go) and the dead-store and uninit-read rules (lint.go) propagate
// over its def-use edges; ir.Module is untouched.

// verKind discriminates slot versions.
type verKind uint8

const (
	verEntry verKind = iota // the slot's undefined value at function entry
	verStore                // an LStore
	verPhi                  // a merge at the head of block
	verSigma                // the refinement of ops[0] along the edge block→to
)

// version is one definition of one stack slot.
type version struct {
	kind  verKind
	slot  int
	block int       // the block whose visit evaluates it: a σ's is its edge's source
	to    int       // the σ edge's target
	store *ir.Instr // the LStore
	// ops holds a phi's operands, one per reachable predecessor in
	// SSA.preds order, or a σ's parent.
	ops []int32
}

// constraint narrows the σ version ver by `load PRED other` when load still
// reads ver's parent at the end of the branching block.
type constraint struct {
	ver, load int32
	pred      ir.Pred
	other     ir.Value
}

// sigmaEdge is one CondBr edge whose condition compares slot loads: its σ
// versions are first..first+n-1, narrowed by cons in condition order.
type sigmaEdge struct {
	to       int
	first, n int32
	cons     []constraint
}

// SSA is the slot-SSA form of one function. Node IDs cover both kinds of
// value: 0..NumVals-1 are the IR's instruction values, and NumVals+v is
// slot version v. Versions 0..NSlots-1 are the slots' entry values.
type SSA struct {
	c    *CFG
	vers []version
	// def[id] is the instruction defining value id (nil if none), and
	// defBlk[id] its block.
	def    []*ir.Instr
	defBlk []int32
	// loadVer[id] is the version the LLoad defining value id reads, or -1.
	loadVer []int32
	// preds[b] lists b's reachable predecessors, the phi operand order;
	// the entry's list starts with -1, the function's caller.
	preds [][]int
	// phis[b] lists the phi versions heading block b.
	phis [][]int32
	// storeBase[b] is the version of block b's first LStore; the rest
	// follow in instruction order.
	storeBase []int32
	// sigmas[b] lists the refined edges leaving block b.
	sigmas [][]sigmaEdge
	// userOff/userBlk list, per node, the blocks that read it outside the
	// defining block's own instruction order (CSR layout).
	userOff, userBlk []int32
}

// users returns the blocks reading node n.
func (s *SSA) users(n int) []int32 { return s.userBlk[s.userOff[n]:s.userOff[n+1]] }

// node returns the node ID of version v.
func (s *SSA) node(v int32) int { return len(s.def) + int(v) }

// instr returns the instruction defining v, or nil.
func (s *SSA) instr(v ir.Value) *ir.Instr {
	if v.Kind == ir.VInstr && v.ID >= 0 && v.ID < len(s.def) {
		return s.def[v.ID]
	}
	return nil
}

// loadOf returns the value ID of the LLoad v is, directly or through zero
// extensions, or -1.
func (s *SSA) loadOf(v ir.Value) int {
	d := s.instr(v)
	for d != nil && d.Op == ir.OpZExt {
		d = s.instr(d.Args[0])
	}
	if d == nil || d.Op != ir.OpLLoad {
		return -1
	}
	return d.ID
}

// phiAt returns the phi of slot heading block b, or -1.
func (s *SSA) phiAt(b, slot int) int32 {
	for _, v := range s.phis[b] {
		if s.vers[v].slot == slot {
			return v
		}
	}
	return -1
}

// sigmaOn returns the σ version of slot on the edge from→to, or -1.
func (s *SSA) sigmaOn(from, to, slot int) int32 {
	for _, e := range s.sigmas[from] {
		for v := e.first; e.to == to && v < e.first+e.n; v++ {
			if s.vers[v].slot == slot {
				return v
			}
		}
	}
	return -1
}

func (s *SSA) newVersion(v version) int32 {
	s.vers = append(s.vers, v)
	return int32(len(s.vers) - 1)
}

// buildSSA places phis and σ-copies and renames every slot access of c's
// function.
func buildSSA(c *CFG) *SSA {
	f := c.F
	n := len(f.Blocks)
	s := &SSA{
		c:         c,
		def:       make([]*ir.Instr, f.NumVals),
		defBlk:    make([]int32, f.NumVals),
		loadVer:   make([]int32, f.NumVals),
		preds:     make([][]int, n),
		phis:      make([][]int32, n),
		storeBase: make([]int32, n),
		sigmas:    make([][]sigmaEdge, n),
	}
	for i := 0; i < f.NSlots; i++ {
		s.newVersion(version{kind: verEntry, slot: i})
	}
	for i := range s.loadVer {
		s.loadVer[i] = -1
	}
	// defBlocks[slot] lists the blocks defining slot by a store or by a σ
	// edge into them; forced[slot] lists the merge blocks a σ edge enters.
	defBlocks, forced := make([][]int, f.NSlots), make([][]int, f.NSlots)
	for _, b := range c.RPO {
		if b == 0 {
			s.preds[b] = append(s.preds[b], -1)
		}
		for _, p := range c.Preds[b] {
			if c.Reachable(p) {
				s.preds[b] = append(s.preds[b], p)
			}
		}
		for _, in := range f.Blocks[b].Instrs {
			if in.ID >= 0 && in.ID < f.NumVals {
				s.def[in.ID], s.defBlk[in.ID] = in, int32(b)
			}
			if in.Op == ir.OpLStore {
				defBlocks[in.Slot] = append(defBlocks[in.Slot], b)
			}
		}
	}
	for _, b := range c.RPO {
		t := f.Blocks[b].Terminator()
		if t == nil || t.Op != ir.OpCondBr || t.True == t.False {
			continue
		}
		for _, to := range [2]int{t.True, t.False} {
			e := sigmaEdge{to: to, first: int32(len(s.vers))}
			s.constrain(&e, b, t.Args[0], to == t.True)
			if e.n == 0 {
				continue
			}
			s.sigmas[b] = append(s.sigmas[b], e)
			for v := e.first; v < e.first+e.n; v++ {
				if sl := s.vers[v].slot; len(s.preds[to]) == 1 {
					defBlocks[sl] = append(defBlocks[sl], to)
				} else {
					forced[sl] = append(forced[sl], to)
				}
			}
		}
	}
	s.placePhis(defBlocks, forced)
	s.rename()
	return s
}

// constrain records on edge e the comparisons cond's truth implies,
// recursing through && (true) and || (false), and gives each compared
// slot one σ version on the edge.
func (s *SSA) constrain(e *sigmaEdge, from int, cond ir.Value, truth bool) {
	d := s.instr(cond)
	switch {
	case d == nil:
	case d.Op == ir.OpAnd && truth, d.Op == ir.OpOr && !truth:
		s.constrain(e, from, d.Args[0], truth)
		s.constrain(e, from, d.Args[1], truth)
	case d.Op == ir.OpICmp:
		pred := d.Pred
		if !truth {
			pred = pred.Negate()
		}
		for i, pd := range [2]ir.Pred{pred, swapPred(pred)} {
			ld := s.loadOf(d.Args[i])
			if ld < 0 {
				continue
			}
			slot, v := s.def[ld].Slot, int32(-1)
			for w := e.first; v < 0 && w < e.first+e.n; w++ {
				if s.vers[w].slot == slot {
					v = w
				}
			}
			if v < 0 {
				v = s.newVersion(version{kind: verSigma, slot: slot, block: from, to: e.to, ops: []int32{-1}})
				e.n++
			}
			e.cons = append(e.cons, constraint{ver: v, load: int32(ld), pred: pd, other: d.Args[1-i]})
		}
	}
}

// placePhis puts a phi for each slot at the iterated dominance frontier of
// its definitions, and at every merge block a σ edge of the slot enters.
func (s *SSA) placePhis(defBlocks, forced [][]int) {
	c := s.c
	n := len(c.F.Blocks)
	df := make([][]int, n)
	for _, b := range c.RPO {
		if len(s.preds[b]) < 2 {
			continue
		}
		for _, p := range s.preds[b] {
			for r := p; r >= 0 && r != c.idom[b]; r = c.idom[r] {
				if l := len(df[r]); l == 0 || df[r][l-1] != b {
					df[r] = append(df[r], b)
				}
			}
		}
	}
	slotsAt := make([][]int, n)
	stamp := make([]int, n) // slot+1 once slot has a phi at b
	seen := make([]int, n)  // slot+1 once b joined slot's worklist
	put := func(b, slot int) {
		if stamp[b] != slot+1 {
			stamp[b] = slot + 1
			slotsAt[b] = append(slotsAt[b], slot)
		}
	}
	for slot := range defBlocks {
		work := append(append(defBlocks[slot], 0), forced[slot]...) // the entry defines every slot
		for _, b := range forced[slot] {
			put(b, slot)
		}
		for _, b := range work {
			seen[b] = slot + 1
		}
		for len(work) > 0 {
			x := work[len(work)-1]
			work = work[:len(work)-1]
			for _, y := range df[x] {
				put(y, slot)
				if seen[y] != slot+1 {
					seen[y] = slot + 1
					work = append(work, y)
				}
			}
		}
	}
	total := 0
	for b, sl := range slotsAt {
		total += len(sl) * len(s.preds[b])
	}
	buf := make([]int32, total)
	for _, b := range c.RPO {
		for _, slot := range slotsAt[b] {
			k := len(s.preds[b])
			if b == 0 {
				buf[0] = int32(slot) // the caller brings the entry value
			}
			s.phis[b] = append(s.phis[b], s.newVersion(version{kind: verPhi, slot: slot, block: b, ops: buf[:k:k]}))
			buf = buf[k:]
		}
	}
}

// rename walks the dominator tree, giving every LLoad the version it reads
// and every phi and σ its operands, and records which blocks read which
// nodes.
func (s *SSA) rename() {
	c, f := s.c, s.c.F
	kids := make([][]int, len(f.Blocks))
	for _, b := range c.RPO[1:] {
		kids[c.idom[b]] = append(kids[c.idom[b]], b)
	}
	cur := make([]int32, f.NSlots) // the version each slot holds now
	for i := range cur {
		cur[i] = int32(i)
	}
	type undo struct{ slot, ver int32 }
	var log []undo
	set := func(slot int, v int32) {
		log = append(log, undo{int32(slot), cur[slot]})
		cur[slot] = v
	}
	var uses [][2]int32 // (node, reading block)
	read := func(n, b int) { uses = append(uses, [2]int32{int32(n), int32(b)}) }
	// A block's visit evaluates its own definitions in order, so it needs
	// to hear only of nodes other blocks define.
	readVal := func(v ir.Value, b int) {
		if s.instr(v) != nil && int(s.defBlk[v.ID]) != b {
			read(v.ID, b)
		}
	}
	readVer := func(v int32, b int) {
		if s.vers[v].kind != verEntry && s.vers[v].block != b {
			read(s.node(v), b)
		}
	}
	// enter renames block b; the walk leaves it once its dominator-tree
	// children are done, undoing its definitions.
	type frame struct{ b, kid, mark int }
	var stack []frame
	enter := func(b int) {
		stack = append(stack, frame{b: b, mark: len(log)})
		if p := s.preds[b]; len(p) == 1 && p[0] >= 0 {
			for _, e := range s.sigmas[p[0]] {
				for v := e.first; e.to == b && v < e.first+e.n; v++ {
					set(s.vers[v].slot, v)
				}
			}
		}
		for _, v := range s.phis[b] {
			set(s.vers[v].slot, v)
		}
		s.storeBase[b] = int32(len(s.vers))
		for _, in := range f.Blocks[b].Instrs {
			for _, a := range in.Args {
				readVal(a, b)
			}
			switch in.Op {
			case ir.OpLLoad:
				s.loadVer[in.ID] = cur[in.Slot]
				readVer(cur[in.Slot], b)
			case ir.OpLStore:
				set(in.Slot, s.newVersion(version{kind: verStore, slot: in.Slot, block: b, store: in}))
			}
		}
		for _, e := range s.sigmas[b] {
			for v := e.first; v < e.first+e.n; v++ {
				s.vers[v].ops[0] = cur[s.vers[v].slot]
				readVer(cur[s.vers[v].slot], b)
			}
			for _, k := range e.cons {
				readVal(k.other, b)
			}
		}
		for _, t := range c.Succs[b] {
			k := 0
			for s.preds[t][k] != b {
				k++
			}
			for _, v := range s.phis[t] {
				op := s.sigmaOn(b, t, s.vers[v].slot)
				if op < 0 {
					op = cur[s.vers[v].slot]
				}
				s.vers[v].ops[k] = op
				if s.vers[op].kind != verEntry {
					read(s.node(op), t) // phis head t: they hear of every move
				}
			}
		}
	}
	if len(c.RPO) > 0 {
		enter(0)
	}
	for len(stack) > 0 {
		fr := &stack[len(stack)-1]
		if fr.kid < len(kids[fr.b]) {
			fr.kid++
			enter(kids[fr.b][fr.kid-1])
			continue
		}
		for len(log) > fr.mark {
			u := log[len(log)-1]
			cur[u.slot] = u.ver
			log = log[:len(log)-1]
		}
		stack = stack[:len(stack)-1]
	}
	// Lay the reads out per node (a counting sort into CSR form).
	s.userOff = make([]int32, len(s.def)+len(s.vers)+1)
	for _, u := range uses {
		s.userOff[u[0]+1]++
	}
	for i := 1; i < len(s.userOff); i++ {
		s.userOff[i] += s.userOff[i-1]
	}
	s.userBlk = make([]int32, len(uses))
	for _, u := range uses {
		s.userBlk[s.userOff[u[0]]] = u[1]
		s.userOff[u[0]]++
	}
	copy(s.userOff[1:], s.userOff) // each slot now holds its successor's start
	s.userOff[0] = 0
}

// worklist drives one sparse solve over an SSA: a reached block is visited
// again whenever a node it reads moves, lowest reverse-postorder position
// first, so inner loops settle before the code after them runs.
type worklist struct {
	s      *SSA
	live   []bool // the block has been reached
	queued []bool // by reverse-postorder position
	lo     int    // no position below lo is queued
}

func (s *SSA) newWorklist() *worklist {
	n := len(s.c.F.Blocks)
	return &worklist{s: s, live: make([]bool, n), queued: make([]bool, n)}
}

// reach marks block b reached and queues it.
func (w *worklist) reach(b int) {
	w.live[b] = true
	if p := w.s.c.rpoPos[b]; p >= 0 && !w.queued[p] {
		w.queued[p], w.lo = true, min(w.lo, p)
	}
}

// moved queues every reached block that reads node n.
func (w *worklist) moved(n int) {
	for _, b := range w.s.users(n) {
		if w.live[b] {
			w.reach(int(b))
		}
	}
}

// run visits queued blocks until none is left.
func (w *worklist) run(visit func(b int)) {
	for rpo := w.s.c.RPO; ; {
		for w.lo < len(rpo) && !w.queued[w.lo] {
			w.lo++
		}
		if w.lo == len(rpo) {
			return
		}
		w.queued[w.lo] = false
		visit(rpo[w.lo])
	}
}

// liveVersions marks the versions an LLoad reads, directly or through phis
// and σ-copies: a store whose version is unmarked is never read.
func (s *SSA) liveVersions() []bool {
	live := make([]bool, len(s.vers))
	for _, v := range s.loadVer {
		if v >= 0 {
			live[v] = true
		}
	}
	return s.spread(live, false)
}

// undefVersions marks the versions a slot's undefined entry value reaches
// through phis and σ-copies.
func (s *SSA) undefVersions() []bool {
	undef := make([]bool, len(s.vers))
	for v := range s.c.F.NSlots {
		undef[v] = true
	}
	return s.spread(undef, true)
}

// spread sweeps the phi and σ operand edges o → v until no mark moves:
// forward it marks v when o is marked, backward o when v is.
func (s *SSA) spread(mark []bool, forward bool) []bool {
	for moved := true; moved; {
		moved = false
		for v, ver := range s.vers {
			for _, o := range ver.ops {
				from, to := int(o), v
				if !forward {
					from, to = to, from
				}
				if mark[from] && !mark[to] {
					mark[to], moved = true, true
				}
			}
		}
	}
	return mark
}
