package analysis

import (
	"clara/internal/ir"
)

// SimplifyModule returns a copy of m with the interval facts applied:
// single-value operands folded in place, two-way branches with one
// feasible side straightened, unreachable blocks removed, and unused pure
// value computations dropped. It rewrites exactly what const-branch and
// dead-code report, so its output lints clean of both. The second result
// counts rewrites (0 means the copy is structurally identical). The input
// module is never mutated; the output always passes ir.Verify.
func SimplifyModule(m *ir.Module) (*ir.Module, int) {
	out := cloneModule(m)
	fx := NewFacts(out)
	ri, f := ComputeRanges(fx), fx.F
	changes := 0
	for _, b := range f.Blocks {
		if taken, ok := ri.constBranch(b.Index); ok {
			t := b.Terminator()
			t.Op, t.True, t.False, t.Args = ir.OpBr, taken, 0, nil
			changes++
		}
		for _, in := range b.Instrs {
			for ai, a := range in.Args {
				if c, ok := ri.ValRange(a.ID).Const(); ok && ri.ssa.instr(a) != nil {
					in.Args[ai] = ir.ConstVal(int64(c), a.Ty)
					changes++
				}
			}
		}
	}
	changes += removeUnreachable(f)
	changes += removeDeadValues(f)
	if err := ir.Verify(out); err != nil {
		// Defensive: a rewrite that breaks structural invariants must never
		// escape; fall back to the unmodified input.
		return cloneModule(m), 0
	}
	return out, changes
}

// removeUnreachable drops blocks no terminator path reaches and reindexes
// the remainder.
func removeUnreachable(f *ir.Func) int {
	cfg := BuildCFG(f)
	remap := make([]int, len(f.Blocks))
	var kept []*ir.Block
	for i, b := range f.Blocks {
		if !cfg.Reachable(i) {
			remap[i] = -1
			continue
		}
		remap[i] = len(kept)
		b.Index = len(kept)
		kept = append(kept, b)
	}
	removed := len(f.Blocks) - len(kept)
	if removed == 0 {
		return 0
	}
	for _, b := range kept {
		t := b.Terminator()
		if t == nil {
			continue
		}
		switch t.Op {
		case ir.OpBr:
			t.True = remap[t.True]
		case ir.OpCondBr:
			t.True = remap[t.True]
			t.False = remap[t.False]
		}
	}
	f.Blocks = kept
	return removed
}

// removeDeadValues drops pure value computations (compute ops and local
// loads) whose results are never used, iterating until stable. Global
// loads are kept: they are the stateful memory accesses the predictor
// counts, and dropping them is a placement-relevant decision left to the
// NIC compiler.
func removeDeadValues(f *ir.Func) int {
	removed := 0
	for {
		used := make([]bool, f.NumVals)
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				for _, a := range in.Args {
					if a.Kind == ir.VInstr && a.ID >= 0 && a.ID < len(used) {
						used[a.ID] = true
					}
				}
			}
		}
		dropped := 0
		for _, b := range f.Blocks {
			kept := b.Instrs[:0]
			for _, in := range b.Instrs {
				pure := in.Op.IsCompute() || in.Op == ir.OpLLoad
				if pure && in.ID >= 0 && in.ID < len(used) && !used[in.ID] {
					dropped++
					continue
				}
				kept = append(kept, in)
			}
			b.Instrs = kept
		}
		if dropped == 0 {
			return removed
		}
		removed += dropped
	}
}

// cloneModule deep-copies a module (globals, the handler, blocks,
// instructions, operand slices).
func cloneModule(m *ir.Module) *ir.Module {
	out := &ir.Module{Name: m.Name}
	for _, g := range m.Globals {
		cg := *g
		out.Globals = append(out.Globals, &cg)
	}
	f := m.Func
	out.Func = &ir.Func{Name: f.Name, Ret: f.Ret, NumVals: f.NumVals, NSlots: f.NSlots}
	for _, b := range f.Blocks {
		nb := &ir.Block{Index: b.Index, Name: b.Name}
		for _, in := range b.Instrs {
			ni := *in
			ni.Args = append([]ir.Value(nil), in.Args...)
			nb.Instrs = append(nb.Instrs, &ni)
		}
		out.Func.Blocks = append(out.Func.Blocks, nb)
	}
	return out
}
