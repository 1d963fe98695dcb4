package interp

// This file lowers a compiled program (the flat cInstr form the reference
// loop walks) into the step engine's form: superblocks — chains of blocks
// joined by unconditional branches — each one []vstep closed by the last
// block's terminator, its targets resolved to chain indices (steps.go).
// One pipeline, one lowering per program:
//
//	chains         which blocks each chain holds
//	remapInstrs    operands move into the combined register space
//	lvnBlock       local loads whose value never leaves the block vanish
//	toStep         each instruction becomes a vstep
//	peepholeSteps  constant operands and trailing local stores fold in
//
// Every rewrite is per block and keeps the write-through contract: each
// surviving instruction still writes its IR result cell before the next
// one reads its operands, so no use-def matching is needed and other
// blocks observe exactly the unlowered state. Fuel and Steps charge by
// source IR count (sChain.size), so lowering never changes the observable
// cost model. No step counts anything: the engine counts chain entries,
// and lower records each chain's blocks and global accesses for
// Machine.Counters to fold those entries through.
//
// The packet framework APIs and hash32 arrive as instructions of their
// own (compileInstr picks xPktGet, xPktSet, xCallPayload, xCallSetPayload
// or xCallHash32), which both loops run the same way; none of them
// carries probe work against a global. Every other API call is an xCall
// step handing the original instruction to Machine.call, the code the
// reference loop runs, so probe counts, counters and map/vector semantics
// exist once.
//
// compileModule runs ir.Verify first, so every block ends in exactly one
// terminator, branch targets lie inside the function, map/vec APIs name a
// global of their kind and arrays have a positive length: compiling and
// lowering a verified module cannot fail, and no instruction can fail at
// run time; only fuel can run out.

// lowering returns the program's step-engine form, building it on first
// use; every machine for the module shares it.
func (p *program) lowering() *lowered {
	p.lowerOnce.Do(func() { p.lowered = lower(p) })
	return &p.lowered
}

// maxChain caps a chain's blocks. A block is copied into every chain that
// runs through it, so the cap bounds a lowering at maxChain× the blocks'
// steps; loop bodies of a few blocks fit well inside it.
const maxChain = 8

// chains partitions the reachable control flow into superblocks and
// returns them flat: chain c holds blocks members[starts[c]:starts[c+1]],
// and chainOf maps each root block to its chain (-1 for other blocks).
// Roots are the entry block, every conditional target, and every block a
// chain was cut before; a chain follows unconditional branches from its
// root and is cut before a block it already holds or at maxChain blocks.
// Only roots are ever branched to from a chain's end, so every terminator
// resolves through chainOf.
func chains(p *program) (members, starts, chainOf []int32) {
	nb := len(p.blocks)
	marks := make([]int32, 2*nb)
	chainOf, in := marks[:nb], marks[nb:]
	for b := range chainOf {
		chainOf[b] = -1
	}
	var roots []int32
	root := func(b int32) {
		if chainOf[b] < 0 {
			chainOf[b] = int32(len(roots))
			roots = append(roots, b)
		}
	}
	root(0)
	// in[b] == c+1 while chain c is being built and holds b.
	members = make([]int32, 0, nb)
	for c := int32(0); int(c) < len(roots); c++ {
		starts = append(starts, int32(len(members)))
		b := roots[c]
		for n := 1; ; n++ {
			members = append(members, b)
			in[b] = c + 1
			instrs := p.blocks[b].instrs
			tm := &instrs[len(instrs)-1]
			if tm.op == xCondBr || tm.op == xCmpBr {
				root(tm.t)
				root(tm.f)
				break
			}
			if tm.op != xBr {
				break
			}
			if n == maxChain || in[tm.t] == c+1 {
				root(tm.t)
				break
			}
			b = tm.t
		}
	}
	return members, append(starts, int32(len(members))), chainOf
}

func lower(p *program) lowered {
	members, starts, chainOf := chains(p)
	cross := crossReads(p)
	sc := newLVNScratch(p)
	nb, nc := len(p.blocks), len(starts)-1
	// Every chain's steps live in one array. A block is lowered where the
	// first chain holding it needs it, and later chains copy it from there.
	// Lowering never adds instructions, so the blocks' body counts plus a
	// terminator per chain bound the array, which is never regrown.
	limit := nc
	for _, b := range members {
		limit += len(p.blocks[b].instrs) - 1
	}
	all := make([]vstep, 0, limit)
	span := make([]int32, 2*nb) // block b's body is all[span[2b]:span[2b+1]]
	done := make([]bool, nb)
	terms := make([]cInstr, nb) // lowered terminators
	tab := make([]int32, 0, len(members))
	out := make([]sChain, nc)
	for c := range out {
		ms := members[starts[c]:starts[c+1]]
		ch := &out[c]
		first := len(all)
		ch.lo = int32(len(tab))
		tab = append(tab, ms...)
		ch.mid = int32(len(tab))
		for _, b := range ms {
			if done[b] {
				all = append(all, all[span[2*b]:span[2*b+1]]...)
			} else {
				done[b] = true
				span[2*b] = int32(len(all))
				all = lowerBlock(p, all, int(b), cross, sc, &terms[b])
				span[2*b+1] = int32(len(all))
			}
			ch.size += int32(p.blocks[b].size)
			for i := range p.blocks[b].instrs {
				switch in := &p.blocks[b].instrs[i]; in.op {
				case xGLoadS, xGStoreS, xGLoadA, xGStoreA, xGLoadAP, xGStoreAP:
					tab = append(tab, in.gidx*int32(nb)+b)
				}
			}
		}
		ch.hi = int32(len(tab))
		tm := &terms[ms[len(ms)-1]]
		ts := vstep{op: tm.op, pred: tm.pred, a0: tm.a0, a1: tm.a1, id: tm.id}
		switch tm.op {
		case xBr:
			ts.k = chainOf[tm.t]
		case xCondBr, xCmpBr:
			ts.k, ts.gi = chainOf[tm.t], chainOf[tm.f]
		}
		all = append(all, ts)
		ch.steps = all[first:len(all):len(all)]
	}
	return lowered{chains: out, tab: tab}
}

// lowerBlock appends block bi's body in step form to flat and stores its
// lowered terminator in tm. The body has at most one step per instruction
// before the terminator.
func lowerBlock(p *program, flat []vstep, bi int, cross []bool, sc *lvnScratch, tm *cInstr) []vstep {
	sc.remap = remapInstrs(p, sc.remap, p.blocks[bi].instrs)
	instrs := lvnBlock(p, sc.remap, cross, sc)
	body := instrs[:len(instrs)-1]
	*tm = instrs[len(instrs)-1]
	first := len(flat)
	// Calls pass through remapInstrs and lvnBlock untouched and in order,
	// so the k-th call step is the block's k-th original call; pointing at
	// that one lets the lowered copy be collected.
	orig := p.blocks[bi].instrs
	for i := range body {
		s := toStep(p, &body[i], bi)
		if body[i].op == xCall {
			for orig[0].op != xCall {
				orig = orig[1:]
			}
			s.call, orig = &orig[0], orig[1:]
		}
		flat = append(flat, s)
	}
	// peepholeSteps rewrites in place, from the front of its argument.
	return flat[:first+len(peepholeSteps(p, flat[first:]))]
}

// vsOff is where the vals space (instruction results + const pool)
// begins inside the machine's combined register array; local slots
// occupy [0, vsOff). Machines always allocate at least one slot cell.
func (p *program) vsOff() int32 {
	if p.nslots == 0 {
		return 1
	}
	return int32(p.nslots)
}

// crossReads reports, per vals-space cell, whether more than one block
// reads it. A local load whose result cell is only ever read inside its
// own block is a candidate for elision by lvnBlock; one read elsewhere
// disqualifies it. Operand fields are scanned blanket-style (including
// fields an op does not actually read) — that can only over-approximate,
// which keeps loads, never drops them. An unread field is 0, which is why
// the vals space gets one cell more than it has.
func crossReads(p *program) []bool {
	n := p.nvals + len(p.pool) + 1
	cross := make([]bool, n)
	seen := make([]int32, n) // 1 + the first block reading the cell; 0 = none yet
	for b := range p.blocks {
		tag := int32(b) + 1
		for i := range p.blocks[b].instrs {
			in := &p.blocks[b].instrs[i]
			for _, c := range [2]int32{in.a0, in.a1} {
				if fb := seen[c]; fb != 0 && fb != tag {
					cross[c] = true
				} else {
					seen[c] = tag
				}
			}
		}
	}
	return cross
}

// remapInstrs copies a block's instructions into dst's array with every
// vals-space operand offset into the combined register space (slot cells
// keep their indices; value and const cells shift up by vsOff). Calls
// are left untouched — Machine.call reads m.vals with the original
// encoding, and the two views share cells. Offsetting a field an op never
// reads is harmless; no step touches it.
func remapInstrs(p *program, dst, src []cInstr) []cInstr {
	off := p.vsOff()
	dst = append(dst[:0], src...)
	for i := range dst {
		in := &dst[i]
		if in.op == xCall {
			continue
		}
		in.id += off
		in.a0 += off
		in.a1 += off
	}
	return dst
}

// lvnScratch is lvnBlock's per-cell state, indexed by combined-space
// cell: allocated once per lowering, and back to "nothing recorded" after
// every block, so no block pays for another's cells.
type lvnScratch struct {
	// first and last are the first and last positions in the block
	// reading each cell; -1 when no instruction reads it.
	first, last []int32
	// alias maps a value cell to the slot cell holding the same value
	// (its elided load's slot); -1 when the value has no deferred load.
	alias []int32
	// bySlot lists, per slot cell, the value cells aliased to it.
	bySlot [][]int32
	// remap and out hold one block's instructions on their way through
	// remapInstrs and lvnBlock.
	remap, out []cInstr
}

func newLVNScratch(p *program) *lvnScratch {
	n := int(p.vsOff()) + p.nvals + len(p.pool) + 1
	cells := make([]int32, 3*n)
	for i := range cells {
		cells[i] = -1
	}
	return &lvnScratch{
		first: cells[:n], last: cells[n : 2*n], alias: cells[2*n:],
		bySlot: make([][]int32, p.vsOff()),
	}
}

// lvnBlock elides local loads. On the step engine local slot traffic is
// unobservable (no hook or counter sees it, and fuel and Steps charge
// by source size regardless), so a load whose result is only consumed
// inside this block need not execute at all: its consumers read the slot
// cell directly. The load is materialized late only where its elision
// would be visible — before a store that overwrites the slot while the
// loaded value still has uses, and before a call that reads the cell
// through m.vals. Loads whose result escapes the block (crossReads) are
// kept. Runs on the remapped copy and returns a possibly shorter
// instruction sequence, terminator included, in sc.out.
func lvnBlock(p *program, instrs []cInstr, cross []bool, sc *lvnScratch) []cInstr {
	off := p.vsOff()
	// last[c] is the last position reading cell c (blanket over operand
	// fields: over-approximation only keeps loads alive longer). first
	// guards the degenerate use-before-def pattern: if a cell is read
	// earlier in the block than the load defining it, eliding the load
	// would clobber a value carried from a prior iteration.
	first, last, alias := sc.first, sc.last, sc.alias
	use := func(c int32, i int) {
		last[c] = int32(i)
		if first[c] < 0 {
			first[c] = int32(i)
		}
	}
	for i := range instrs {
		in := &instrs[i]
		if in.op == xCall {
			if in.nargs > 0 {
				use(in.a0+off, i)
			}
			if in.nargs > 1 {
				use(in.a1+off, i)
			}
			continue
		}
		use(in.a0, i)
		use(in.a1, i)
	}
	out := sc.out[:0]
	// materialize emits the deferred load for cell v now (reading slot s
	// while it still holds the value) and retires the alias.
	materialize := func(v, s int32) {
		out = append(out, cInstr{op: xLLoad, id: v, slot: s})
		alias[v] = -1
	}
	for i := range instrs {
		in := instrs[i]
		if in.op == xCall {
			if in.nargs > 0 {
				if s := alias[in.a0+off]; s >= 0 {
					materialize(in.a0+off, s)
				}
			}
			if in.nargs > 1 {
				if s := alias[in.a1+off]; s >= 0 {
					materialize(in.a1+off, s)
				}
			}
			out = append(out, in)
			continue
		}
		if s := alias[in.a0]; s >= 0 {
			in.a0 = s
		}
		if s := alias[in.a1]; s >= 0 {
			in.a1 = s
		}
		switch in.op {
		case xLLoad:
			v := in.id
			if fu := first[v]; !cross[v-off] && (fu < 0 || fu >= int32(i)) {
				alias[v] = in.slot
				sc.bySlot[in.slot] = append(sc.bySlot[in.slot], v)
				continue
			}
			out = append(out, in)
		case xLStore:
			s := in.slot
			for _, v := range sc.bySlot[s] {
				if alias[v] == s {
					if last[v] > int32(i) {
						materialize(v, s)
					} else {
						alias[v] = -1
					}
				}
			}
			sc.bySlot[s] = sc.bySlot[s][:0]
			out = append(out, in)
		default:
			out = append(out, in)
		}
	}
	// Forget the block: every cell recorded above is an operand, or the
	// result and slot of a local load.
	for i := range instrs {
		in := &instrs[i]
		a0, a1 := in.a0, in.a1
		if in.op == xCall {
			a0, a1 = a0+off, a1+off
		}
		first[a0], last[a0], first[a1], last[a1] = -1, -1, -1, -1
		if in.op == xLLoad {
			alias[in.id] = -1
			sc.bySlot[in.slot] = sc.bySlot[in.slot][:0]
		}
	}
	sc.out = out
	return out
}

// toStep translates one lowered body instruction of block bi into its
// step; calls carry the block index Machine.call reports.
func toStep(p *program, in *cInstr, bi int) vstep {
	s := vstep{mask: in.mask, a0: in.a0, a1: in.a1, id: in.id, op: in.op, pred: in.pred}
	switch in.op {
	case xLLoad:
		s.a0 = in.slot // vs[id] = vs[slot]
	case xLStore:
		s.id = in.slot // vs[slot] = vs[a0] & mask
	case xCall:
		s.k = int32(bi) // lowerBlock sets s.call
	case xPktGet, xPktSet:
		s.k = int32(in.api)
	case xGLoadS, xGStoreS:
		s.gi = in.gidx
	case xGLoadA, xGStoreA:
		s.gi, s.aux = in.gidx, uint64(p.glen[in.gidx])
	case xGLoadAP, xGStoreAP:
		s.gi, s.aux = in.gidx, uint64(p.glen[in.gidx]-1)
	}
	return s
}

// peepholeSteps rewrites a body into fewer, fatter steps: a constant
// right operand is baked into the step (vs[c] for a const-pool cell c
// always holds the pooled value), and a local store of the step's own
// fresh result folds into the producing step. Both rewrites keep the
// write-through contract — every constituent's result cell is still
// written — so later steps and other blocks observe identical state.
func peepholeSteps(p *program, ss []vstep) []vstep {
	cb := p.vsOff() + int32(p.nvals) // first const-pool cell, combined space
	out := ss[:0]
	for j := 0; j < len(ss); j++ {
		s := ss[j]
		switch s.op {
		case xAdd, xSub, xMul, xAnd, xOr, xXor, xShl, xLShr, xICmp:
			if s.a1 >= cb {
				c := p.pool[s.a1-cb]
				switch s.op {
				case xAnd:
					c &= s.mask // fold the width mask into the constant
				case xShl, xLShr:
					c &= 63 // pre-bake the shift-amount clamp
				}
				s.aux = c
				s.op = constOp(s.op)
			}
		}
		if j+1 < len(ss) && ss[j+1].op == xLStore && ss[j+1].a0 == s.id {
			if so := storeOp(s.op); so != 0 {
				s.gi = ss[j+1].id // the destination slot
				s.sm = ss[j+1].mask
				s.op = so
				j++
			}
		}
		out = append(out, s)
	}
	return out
}
