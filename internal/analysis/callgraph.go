package analysis

import (
	"sort"

	"clara/internal/ir"
)

// This file is the interprocedural spine of the analysis layer: a call
// graph over a module's IR functions, Tarjan SCC condensation, the
// SCC-ordered driver that re-solves one function's intervals (range.go) or
// taint (taint.go) until no summary moves, and the caller-first order
// freq.go propagates in.
//
// The NFC frontend inlines every user subroutine into the packet handler,
// so frontend-lowered modules have a one-node call graph and the engine
// degenerates to the intraprocedural case for free. Hand-built IR (tests,
// external producers) may carry multiple functions whose OpCall callees
// name sibling functions; those edges — including self-recursive ones —
// are what the SCC machinery exists for.

// CallGraph is the static call graph of one module: a node per function,
// an edge per OpCall whose callee names a sibling function. Calls into the
// framework API (lang.Intrinsics) are leaves, not edges.
//
// It is also the per-module analysis context. The facts several passes
// need are derived once and kept where they belong — the loop nest and
// each loop's trip count on the function's CFG, each function's slot SSA
// and the interval and taint fixpoints over it here — so a pass asks for a
// fact (NaturalLoops, ComputeRanges, InferTripCount, ComputeTaint) and
// never rebuilds it. The
// memoization takes no locks: a call graph is built and consumed by one
// goroutine and dropped with the job; it is not a cache across requests.
type CallGraph struct {
	M *ir.Module
	// Funcs indexes the module's functions; node i is Funcs[i].
	Funcs []*ir.Func
	// CFGs[i] is the cached CFG of Funcs[i] (every interprocedural pass
	// needs them; building once here keeps the passes cheap).
	CFGs []*CFG
	// Callees[i] lists the distinct callee node indices of node i,
	// ascending.
	Callees [][]int
	// Callers[i] lists the distinct caller node indices of node i,
	// ascending.
	Callers [][]int
	// sccOf[i] is the SCC index of node i; SCCs are numbered in reverse
	// topological order (callees before callers).
	sccOf []int
	// sccs[k] lists the node indices of SCC k, ascending.
	sccs [][]int

	index  map[string]int
	ssa    []*SSA       // memoized by ssaOf
	ranges []*RangeInfo // memoized by ComputeRanges
	taint  *TaintInfo   // memoized by ComputeTaint
}

// BuildCallGraph derives the call graph, per-function CFGs, and the SCC
// condensation of a module.
func BuildCallGraph(m *ir.Module) *CallGraph {
	cg := &CallGraph{M: m, index: make(map[string]int, len(m.Funcs))}
	for i, f := range m.Funcs {
		cg.Funcs = append(cg.Funcs, f)
		cg.CFGs = append(cg.CFGs, BuildCFG(f))
		cg.index[f.Name] = i
	}
	cg.Callees = make([][]int, len(cg.Funcs))
	cg.Callers = make([][]int, len(cg.Funcs))
	for i, f := range cg.Funcs {
		seen := map[int]bool{}
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Op != ir.OpCall {
					continue
				}
				j, ok := cg.index[in.Callee]
				if !ok || seen[j] {
					continue // intrinsic or unknown callee, or already edged
				}
				seen[j] = true
				cg.Callees[i] = append(cg.Callees[i], j)
				cg.Callers[j] = append(cg.Callers[j], i)
			}
		}
		sort.Ints(cg.Callees[i])
	}
	for j := range cg.Callers {
		sort.Ints(cg.Callers[j])
	}
	cg.condense()
	return cg
}

// ssaOf returns the slot SSA of node i's function, built on first use.
func (cg *CallGraph) ssaOf(i int) *SSA {
	if cg.ssa == nil {
		cg.ssa = make([]*SSA, len(cg.Funcs))
	}
	if cg.ssa[i] == nil {
		cg.ssa[i] = buildSSA(cg.CFGs[i])
	}
	return cg.ssa[i]
}

// Node returns the node index of the named function, or -1: a call whose
// callee has no node is a framework API call or an unknown one.
func (cg *CallGraph) Node(name string) int {
	if i, ok := cg.index[name]; ok {
		return i
	}
	return -1
}

// condense runs Tarjan's algorithm iteratively (hand-built call chains can
// be deep) and numbers SCCs in reverse topological order: Tarjan pops an
// SCC only after all SCCs reachable from it, so pop order == callees
// before callers.
func (cg *CallGraph) condense() {
	n := len(cg.Funcs)
	cg.sccOf = make([]int, n)
	for i := range cg.sccOf {
		cg.sccOf[i] = -1
	}
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = -1
	}
	var stack []int
	next := 0

	type frame struct{ v, ei int }
	for root := 0; root < n; root++ {
		if index[root] >= 0 {
			continue
		}
		work := []frame{{root, 0}}
		index[root] = next
		low[root] = next
		next++
		stack = append(stack, root)
		onStack[root] = true
		for len(work) > 0 {
			fr := &work[len(work)-1]
			v := fr.v
			if fr.ei < len(cg.Callees[v]) {
				w := cg.Callees[v][fr.ei]
				fr.ei++
				if index[w] < 0 {
					index[w] = next
					low[w] = next
					next++
					stack = append(stack, w)
					onStack[w] = true
					work = append(work, frame{w, 0})
				} else if onStack[w] && index[w] < low[v] {
					low[v] = index[w]
				}
				continue
			}
			work = work[:len(work)-1]
			if len(work) > 0 {
				p := work[len(work)-1].v
				if low[v] < low[p] {
					low[p] = low[v]
				}
			}
			if low[v] == index[v] { // v roots an SCC
				k := len(cg.sccs)
				var members []int
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					cg.sccOf[w] = k
					members = append(members, w)
					if w == v {
						break
					}
				}
				sort.Ints(members)
				cg.sccs = append(cg.sccs, members)
			}
		}
	}
}

// SCCOf returns the SCC index of node i (SCCs are numbered callees-first).
func (cg *CallGraph) SCCOf(i int) int { return cg.sccOf[i] }

// SCCs returns the strongly connected components in reverse topological
// order: every callee's SCC precedes its callers'. Members are ascending
// node indices.
func (cg *CallGraph) SCCs() [][]int { return cg.sccs }

// FixpointSCC runs step over the module to a fixpoint with SCC-aware
// scheduling: SCCs are visited in reverse topological order (so
// bottom-up summaries converge in one sweep on acyclic graphs), and each
// SCC re-iterates its members until step reports no change — the loop a
// self-recursive function needs for its summary to stabilize. Because
// top-down facts (e.g. parameter taint flowing caller→callee) travel
// against this order, whole sweeps repeat until a full pass changes
// nothing. Taint's lattice is finite, the interval cells widen to their
// type range after widenAfter moves, and step is monotone, so termination
// is structural; maxSweeps is a defensive bound for hand-built
// adversarial inputs.
func (cg *CallGraph) FixpointSCC(step func(node int) bool) {
	const maxSweeps = 64
	for sweep := 0; sweep < maxSweeps; sweep++ {
		changed := false
		for _, scc := range cg.sccs {
			for iter := 0; ; iter++ {
				sccChanged := false
				for _, node := range scc {
					if step(node) {
						sccChanged = true
						changed = true
					}
				}
				if !sccChanged || iter >= maxSweeps {
					break
				}
			}
		}
		if !changed {
			return
		}
	}
}
