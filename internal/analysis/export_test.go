package analysis

import (
	"fmt"
	"sort"

	"clara/internal/ir"
)

// Solves reports how many times the interval fixpoint solved ri's function.
func (ri *RangeInfo) Solves() int { return ri.solves }

// SharesSSA reports whether the interval and taint fixpoints of node read
// the one slot SSA the call graph keeps for it.
func SharesSSA(cg *CallGraph, node int) bool {
	s := cg.ssaOf(node)
	return ComputeRanges(cg)[node].ssa == s && ComputeTaint(cg).fns[node].ssa == s
}

// reaching returns the versions that flow into version v through phi
// operands and σ parents, v included.
func (s *SSA) reaching(v int32) map[int32]bool {
	seen := map[int32]bool{v: true}
	for work := []int32{v}; len(work) > 0; {
		x := work[len(work)-1]
		work = work[:len(work)-1]
		for _, o := range s.vers[x].ops {
			if !seen[o] {
				seen[o] = true
				work = append(work, o)
			}
		}
	}
	return seen
}

// StoreReaches returns the value IDs of the loads of f that the LStore at
// (block, instr) reaches, directly or through phis and σ-copies.
func StoreReaches(f *ir.Func, block, instr int) []int {
	s := buildSSA(BuildCFG(f))
	var target int32 = -1
	for v, ver := range s.vers {
		if ver.store == f.Blocks[block].Instrs[instr] {
			target = int32(v)
		}
	}
	var ids []int
	for id, v := range s.loadVer {
		if v >= 0 && s.reaching(v)[target] {
			ids = append(ids, id)
		}
	}
	return ids
}

// LoadDefs returns the LStores, as (block, instr) pairs, whose versions
// reach the load defining value id of f, and whether the slot's undefined
// entry value does.
func LoadDefs(f *ir.Func, id int) (stores [][2]int, uninit bool) {
	s := buildSSA(BuildCFG(f))
	for v := range s.reaching(s.loadVer[id]) {
		switch ver := s.vers[v]; ver.kind {
		case verEntry:
			uninit = true
		case verStore:
			for i, in := range f.Blocks[ver.block].Instrs {
				if in == ver.store {
					stores = append(stores, [2]int{ver.block, i})
				}
			}
		}
	}
	sort.Slice(stores, func(i, j int) bool { return stores[i][0] < stores[j][0] })
	return stores, uninit
}

// CheckSSA verifies the slot SSA of every function of m: each LLoad of a
// reachable block reads exactly one version of its slot, each phi has one
// operand per reachable predecessor, and each use — of an instruction
// value, a load's version, a phi operand at the end of its predecessor, a
// σ's parent at the end of its branch — is dominated by its definition.
func CheckSSA(m *ir.Module) error {
	cg := BuildCallGraph(m)
	for node, f := range cg.Funcs {
		c, s := cg.CFGs[node], cg.ssaOf(node)
		end := func(b int) int { return len(f.Blocks[b].Instrs) }
		// avail reports whether version v is defined before instruction i
		// of block b on every path to it.
		avail := func(v int32, b, i int) bool {
			ver := s.vers[v]
			db, di := ver.block, -1
			switch ver.kind {
			case verEntry:
				return true
			case verStore:
				di = indexOf(f.Blocks[db], ver.store)
			case verSigma:
				if len(s.preds[ver.to]) != 1 { // only the merge's phi reads it
					return b == ver.block && i == end(b)
				}
				db = ver.to
			}
			return db == b && di < i || db != b && c.Dominates(db, b)
		}
		for v, ver := range s.vers {
			switch ver.kind {
			case verPhi:
				if len(ver.ops) != len(s.preds[ver.block]) {
					return fmt.Errorf("%s: phi %d at b%d has %d operands for %d predecessors", f.Name, v, ver.block, len(ver.ops), len(s.preds[ver.block]))
				}
				for k, o := range ver.ops {
					if p := s.preds[ver.block][k]; s.vers[o].slot != ver.slot || p >= 0 && !avail(o, p, end(p)) {
						return fmt.Errorf("%s: phi %d at b%d: operand %d does not reach from b%d", f.Name, v, ver.block, o, p)
					}
				}
			case verSigma:
				if p := ver.ops[0]; s.vers[p].slot != ver.slot || !avail(p, ver.block, end(ver.block)) {
					return fmt.Errorf("%s: σ %d on b%d→b%d: parent %d does not reach", f.Name, v, ver.block, ver.to, p)
				}
			}
		}
		for _, b := range c.RPO {
			for i, in := range f.Blocks[b].Instrs {
				for _, a := range in.Args {
					if a.Kind != ir.VInstr {
						continue
					}
					d := s.instr(a)
					if db := int(s.defBlk[a.ID]); d == nil || db == b && indexOf(f.Blocks[b], d) >= i || !c.Dominates(db, b) {
						return fmt.Errorf("%s: b%d: %s uses %%%d where its definition does not dominate", f.Name, b, in, a.ID)
					}
				}
				if in.Op != ir.OpLLoad {
					continue
				}
				if v := s.loadVer[in.ID]; v < 0 || s.vers[v].slot != in.Slot || !avail(v, b, i) {
					return fmt.Errorf("%s: b%d: %s reads version %d, not one of its slot that dominates it", f.Name, b, in, v)
				}
			}
		}
	}
	return nil
}

func indexOf(b *ir.Block, in *ir.Instr) int {
	for i, x := range b.Instrs {
		if x == in {
			return i
		}
	}
	return -1
}
