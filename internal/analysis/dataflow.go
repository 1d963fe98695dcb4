package analysis

import "clara/internal/ir"

// This file is the generic worklist dataflow framework. A Problem supplies
// the lattice (Bottom/Meet/Equal) and the block transfer function; Solve
// iterates to a fixpoint over the CFG in reverse postorder (forward) or
// postorder (backward). Liveness, reaching definitions (here), and the
// interval analysis (range.go, which additionally refines along branch
// edges and is re-solved per function inside CallGraph.FixpointSCC) are
// the stock instantiations.

// Dir is a dataflow direction.
type Dir int

// Directions.
const (
	Forward Dir = iota
	Backward
)

// Problem defines one dataflow analysis over lattice values of type F.
type Problem[F any] interface {
	// Boundary is the value at the entry (forward) or exits (backward).
	Boundary() F
	// Bottom is the initial interior value (the meet identity).
	Bottom() F
	// Meet combines the values flowing into a confluence point. It may
	// mutate and return a, but must leave b intact.
	Meet(a, b F) F
	// Transfer applies block b to the incoming value. It must not retain
	// or mutate in.
	Transfer(b *ir.Block, in F) F
	// Equal reports lattice-value equality (fixpoint detection).
	Equal(a, b F) bool
}

// EdgeProblem optionally refines the value flowing along a specific CFG
// edge (e.g. range propagation narrowing a slot on a branch side). The
// returned value must be independent of out (Solve may pass it to several
// edges).
type EdgeProblem[F any] interface {
	Problem[F]
	TransferEdge(from, to int, out F) F
}

// Solution holds the fixpoint: the value entering and leaving each block,
// in the analysis direction (for backward problems In[b] is the value at
// the block's end, Out[b] at its start).
type Solution[F any] struct {
	In  []F
	Out []F
}

// Solve runs the worklist algorithm to a fixpoint. Unreachable blocks
// keep Bottom.
func Solve[F any](c *CFG, dir Dir, p Problem[F]) *Solution[F] {
	n := len(c.F.Blocks)
	sol := &Solution[F]{In: make([]F, n), Out: make([]F, n)}
	for i := 0; i < n; i++ {
		sol.In[i] = p.Bottom()
		sol.Out[i] = p.Bottom()
	}
	order := c.RPO
	if dir == Backward {
		order = make([]int, len(c.RPO))
		for i, b := range c.RPO {
			order[len(c.RPO)-1-i] = b
		}
	}
	ep, hasEdge := p.(EdgeProblem[F])

	inWork := make([]bool, n)
	var work []int
	for _, b := range order {
		work = append(work, b)
		inWork[b] = true
	}
	// pop front keeps the order-aligned sweep; appended re-visits go to
	// the back.
	for len(work) > 0 {
		b := work[0]
		work = work[1:]
		inWork[b] = false

		// Gather the incoming value.
		var in F
		var flowIn []int
		if dir == Forward {
			flowIn = c.Preds[b]
		} else {
			flowIn = c.Succs[b]
		}
		boundary := (dir == Forward && b == 0) ||
			(dir == Backward && len(c.Succs[b]) == 0)
		if boundary {
			in = p.Meet(p.Boundary(), p.Bottom())
		} else {
			in = p.Bottom()
		}
		for _, q := range flowIn {
			v := sol.Out[q]
			if hasEdge {
				if dir == Forward {
					v = ep.TransferEdge(q, b, v)
				} else {
					v = ep.TransferEdge(b, q, v)
				}
			}
			in = p.Meet(in, v)
		}
		sol.In[b] = in
		out := p.Transfer(c.F.Blocks[b], in)
		if p.Equal(out, sol.Out[b]) {
			continue
		}
		sol.Out[b] = out
		var flowOut []int
		if dir == Forward {
			flowOut = c.Succs[b]
		} else {
			flowOut = c.Preds[b]
		}
		for _, s := range flowOut {
			if !inWork[s] {
				work = append(work, s)
				inWork[s] = true
			}
		}
	}
	return sol
}

// ---------------------------------------------------------------------------
// Liveness of local stack slots (backward, may).

// SlotSet is a bitset over stack-slot indices.
type SlotSet []uint64

// NewSlotSet returns a set sized for n slots.
func NewSlotSet(n int) SlotSet { return make(SlotSet, (n+63)/64) }

// Has reports membership.
func (s SlotSet) Has(i int) bool { return s[i/64]&(1<<(i%64)) != 0 }

// Add inserts i.
func (s SlotSet) Add(i int) { s[i/64] |= 1 << (i % 64) }

// Remove deletes i.
func (s SlotSet) Remove(i int) { s[i/64] &^= 1 << (i % 64) }

// Clone copies the set.
func (s SlotSet) Clone() SlotSet { return append(SlotSet(nil), s...) }

// Equal reports set equality.
func (s SlotSet) Equal(o SlotSet) bool {
	for i := range s {
		if s[i] != o[i] {
			return false
		}
	}
	return true
}

type livenessProblem struct{ nslots int }

func (p livenessProblem) Boundary() SlotSet { return NewSlotSet(p.nslots) }
func (p livenessProblem) Bottom() SlotSet   { return NewSlotSet(p.nslots) }

func (p livenessProblem) Meet(a, b SlotSet) SlotSet {
	for i := range a {
		a[i] |= b[i]
	}
	return a
}

func (p livenessProblem) Equal(a, b SlotSet) bool { return a.Equal(b) }

func (p livenessProblem) Transfer(b *ir.Block, liveOut SlotSet) SlotSet {
	live := liveOut.Clone()
	for i := len(b.Instrs) - 1; i >= 0; i-- {
		in := b.Instrs[i]
		switch in.Op {
		case ir.OpLStore:
			live.Remove(in.Slot)
		case ir.OpLLoad:
			live.Add(in.Slot)
		}
	}
	return live
}

// Liveness computes, per block, the set of stack slots live at block entry
// (In) and at block exit (Out). Note the backward convention: the returned
// Solution's In is the value at the block's *end* (live-out) and Out at its
// *start* (live-in).
type Liveness struct {
	sol *Solution[SlotSet]
	n   int
}

// ComputeLiveness runs slot liveness over the CFG.
func ComputeLiveness(c *CFG) *Liveness {
	p := livenessProblem{nslots: c.F.NSlots}
	return &Liveness{sol: Solve[SlotSet](c, Backward, p), n: c.F.NSlots}
}

// LiveOut returns the slots live at the end of block b.
func (lv *Liveness) LiveOut(b int) SlotSet { return lv.sol.In[b] }

// LiveIn returns the slots live at the start of block b.
func (lv *Liveness) LiveIn(b int) SlotSet { return lv.sol.Out[b] }

// ---------------------------------------------------------------------------
// Reaching definitions of local stack slots (forward, may).

// UninitDef is the pseudo-definition index meaning "no store: the slot's
// function-entry (uninitialized) value".
const UninitDef = -1

// DefSite identifies one store instruction.
type DefSite struct {
	Block int
	Instr int // index within the block
}

// ReachingDefs maps, at each program point, every slot to the set of
// stores that may reach it. The per-slot sets are kept as sorted slices of
// def indices into Defs (UninitDef for the entry pseudo-def).
type ReachingDefs struct {
	c *CFG
	// Defs lists every store site; a def index refers into it.
	Defs []DefSite
	// defsOf[slot] lists the def indices storing to slot.
	defsOf [][]int
	sol    *Solution[[]defsPerSlot]
}

type defsPerSlot []int // sorted def indices, or nil meaning {UninitDef}

type reachProblem struct {
	nslots int
	// gen[b][slot] is the last def of slot in b (a store kills all prior
	// defs of its slot within the block), or -2 if b has none.
	gen [][]int
}

const noGen = -2

func (p *reachProblem) Boundary() []defsPerSlot {
	// Every slot starts uninitialized.
	f := make([]defsPerSlot, p.nslots)
	for i := range f {
		f[i] = defsPerSlot{UninitDef}
	}
	return f
}

func (p *reachProblem) Bottom() []defsPerSlot { return make([]defsPerSlot, p.nslots) }

func (p *reachProblem) Meet(a, b []defsPerSlot) []defsPerSlot {
	for i := range a {
		a[i] = mergeSorted(a[i], b[i])
	}
	return a
}

func mergeSorted(a, b []int) []int {
	if len(b) == 0 {
		return a
	}
	if len(a) == 0 {
		return append([]int(nil), b...)
	}
	out := make([]int, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			out = append(out, a[i])
			i++
			j++
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		default:
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

func (p *reachProblem) Equal(a, b []defsPerSlot) bool {
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

func (p *reachProblem) Transfer(b *ir.Block, in []defsPerSlot) []defsPerSlot {
	out := make([]defsPerSlot, len(in))
	copy(out, in)
	for slot, g := range p.gen[b.Index] {
		if g != noGen {
			out[slot] = defsPerSlot{g}
		}
	}
	return out
}

// ComputeReachingDefs runs reaching definitions for stack slots.
func ComputeReachingDefs(c *CFG) *ReachingDefs {
	rd := &ReachingDefs{c: c, defsOf: make([][]int, c.F.NSlots)}
	p := &reachProblem{nslots: c.F.NSlots, gen: make([][]int, len(c.F.Blocks))}
	for _, b := range c.F.Blocks {
		g := make([]int, c.F.NSlots)
		for i := range g {
			g[i] = noGen
		}
		for ii, in := range b.Instrs {
			if in.Op == ir.OpLStore {
				di := len(rd.Defs)
				rd.Defs = append(rd.Defs, DefSite{Block: b.Index, Instr: ii})
				rd.defsOf[in.Slot] = append(rd.defsOf[in.Slot], di)
				g[in.Slot] = di
			}
		}
		p.gen[b.Index] = g
	}
	rd.sol = Solve[[]defsPerSlot](c, Forward, p)
	return rd
}

// At returns the defs of slot reaching the start of instruction index
// instr in block b.
func (rd *ReachingDefs) At(b, instr, slot int) []int {
	cur := append([]int(nil), rd.sol.In[b][slot]...)
	for ii, in := range rd.c.F.Blocks[b].Instrs {
		if ii >= instr {
			break
		}
		if in.Op == ir.OpLStore && in.Slot == slot {
			// Find this store's def index.
			for _, di := range rd.defsOf[slot] {
				if rd.Defs[di].Block == b && rd.Defs[di].Instr == ii {
					cur = []int{di}
					break
				}
			}
		}
	}
	return cur
}
