// Package analysis is Clara's static-analysis layer over the NFC IR, whose
// modules are one function, the packet handler: CFG construction
// (dominators, reverse postorder, natural loops), one SSA form over the
// handler's stack slots that every analysis solves over sparsely
// (intervals, payload taint, the dead-store rule), and the offloadability
// linter that turns those facts into structured diagnostics for
// SmartNIC-hostile constructs (paper §3: a legacy NF is analyzed
// statically, before porting). Every module it is given has passed
// ir.Verify, as lang's lowering guarantees, so no pass re-checks what
// Verify states (a call names a framework API, for one).
//
// Downstream consumers: core.Clara attaches lint diagnostics to every
// Insights report, cmd/clara exposes them as a -lint mode, and
// internal/fleet aggregates per-job diagnostic counts into its Stats.
package analysis

import (
	"sort"

	"clara/internal/ir"
)

// CFG is the control-flow graph of one IR function, with the derived
// structures every analysis needs: predecessor lists, reverse postorder,
// and immediate dominators.
type CFG struct {
	F     *ir.Func
	Succs [][]int
	Preds [][]int

	// RPO is the reverse postorder of the blocks reachable from entry.
	RPO []int
	// rpoPos[b] is b's index in RPO, or -1 if b is unreachable.
	rpoPos []int
	// idom[b] is b's immediate dominator (-1 for the entry block and for
	// unreachable blocks).
	idom []int

	// loops is the natural-loop nest, found once by BuildCFG.
	loops []*Loop
}

// BuildCFG derives the CFG of f.
func BuildCFG(f *ir.Func) *CFG {
	n := len(f.Blocks)
	c := &CFG{
		F:      f,
		Succs:  make([][]int, n),
		Preds:  make([][]int, n),
		rpoPos: make([]int, n),
		idom:   make([]int, n),
	}
	for _, b := range f.Blocks {
		c.Succs[b.Index] = b.Succs()
	}
	for b, ss := range c.Succs {
		for _, s := range ss {
			c.Preds[s] = append(c.Preds[s], b)
		}
	}
	// Postorder DFS from the entry block (iterative: the fuzzers feed
	// deeply nested sources whose CFGs would overflow a recursive walk).
	seen := make([]bool, n)
	type frame struct{ b, i int }
	var post []int
	if n > 0 {
		stack := []frame{{0, 0}}
		seen[0] = true
		for len(stack) > 0 {
			fr := &stack[len(stack)-1]
			if fr.i < len(c.Succs[fr.b]) {
				s := c.Succs[fr.b][fr.i]
				fr.i++
				if !seen[s] {
					seen[s] = true
					stack = append(stack, frame{s, 0})
				}
				continue
			}
			post = append(post, fr.b)
			stack = stack[:len(stack)-1]
		}
	}
	c.RPO = make([]int, len(post))
	for i := range post {
		c.RPO[i] = post[len(post)-1-i]
	}
	for i := range c.rpoPos {
		c.rpoPos[i] = -1
	}
	for i, b := range c.RPO {
		c.rpoPos[b] = i
	}
	c.computeDominators()
	c.loops = c.findLoops()
	return c
}

// Reachable reports whether block b is reachable from the entry.
func (c *CFG) Reachable(b int) bool { return c.rpoPos[b] >= 0 }

// InLoop reports whether block b belongs to a natural loop: the loop
// blocks of the §4.1 features ("bounded-loop pointer chasing", loop
// regions) and of the synthesizer's corpus profile.
func (c *CFG) InLoop(b int) bool {
	for _, l := range c.loops {
		if l.Contains(b) {
			return true
		}
	}
	return false
}

// computeDominators runs the Cooper–Harvey–Kennedy iterative algorithm
// over the reverse postorder.
func (c *CFG) computeDominators() {
	for i := range c.idom {
		c.idom[i] = -1
	}
	if len(c.RPO) == 0 {
		return
	}
	entry := c.RPO[0]
	c.idom[entry] = entry
	for changed := true; changed; {
		changed = false
		for _, b := range c.RPO[1:] {
			newIdom := -1
			for _, p := range c.Preds[b] {
				if c.idom[p] < 0 {
					continue // not yet processed or unreachable
				}
				if newIdom < 0 {
					newIdom = p
				} else {
					newIdom = c.intersect(p, newIdom)
				}
			}
			if newIdom >= 0 && c.idom[b] != newIdom {
				c.idom[b] = newIdom
				changed = true
			}
		}
	}
	c.idom[entry] = -1 // conventional: the entry has no idom
}

func (c *CFG) intersect(a, b int) int {
	for a != b {
		for c.rpoPos[a] > c.rpoPos[b] {
			a = c.idom[a]
		}
		for c.rpoPos[b] > c.rpoPos[a] {
			b = c.idom[b]
		}
	}
	return a
}

// Idom returns b's immediate dominator, or -1.
func (c *CFG) Idom(b int) int { return c.idom[b] }

// Dominates reports whether block a dominates block b (every block
// dominates itself). Unreachable blocks dominate nothing.
func (c *CFG) Dominates(a, b int) bool {
	if !c.Reachable(a) || !c.Reachable(b) {
		return false
	}
	for b != a && b >= 0 {
		b = c.idom[b]
	}
	return b == a
}

// Edge is one CFG edge.
type Edge struct{ From, To int }

// Loop is a natural loop: the target of one or more back edges plus every
// block that can reach a back-edge source without passing through the
// header.
type Loop struct {
	// Head is the loop header (the unique entry, by reducibility).
	Head int
	// Blocks lists the loop body including the header, ascending.
	Blocks []int
	// Backs lists the back-edge source blocks.
	Backs []int
	// Exits lists the edges leaving the loop.
	Exits []Edge

	in   []bool
	trip *TripCount // memoized by RangeInfo.InferTripCount
}

// Contains reports whether block b belongs to the loop.
func (l *Loop) Contains(b int) bool { return b < len(l.in) && l.in[b] }

// NaturalLoops finds every natural loop, merging back edges that share a
// header, ordered by header index. Loops are detected through dominance
// (edge u→h with h dominating u); cycles in irreducible control flow —
// which the NFC lowerer never emits — are ignored. The nest is found once
// per CFG; callers share the returned loops and must not mutate them.
func (c *CFG) NaturalLoops() []*Loop { return c.loops }

func (c *CFG) findLoops() []*Loop {
	byHead := map[int]*Loop{}
	n := len(c.F.Blocks)
	for _, u := range c.RPO {
		for _, h := range c.Succs[u] {
			if !c.Dominates(h, u) {
				continue
			}
			l := byHead[h]
			if l == nil {
				l = &Loop{Head: h, in: make([]bool, n)}
				l.in[h] = true
				byHead[h] = l
			}
			l.Backs = append(l.Backs, u)
			// Walk predecessors backward from the back-edge source until
			// the header.
			stack := []int{u}
			for len(stack) > 0 {
				b := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if l.in[b] {
					continue
				}
				l.in[b] = true
				for _, p := range c.Preds[b] {
					if c.Reachable(p) {
						stack = append(stack, p)
					}
				}
			}
		}
	}
	heads := make([]int, 0, len(byHead))
	for h := range byHead {
		heads = append(heads, h)
	}
	sort.Ints(heads)
	loops := make([]*Loop, 0, len(heads))
	for _, h := range heads {
		l := byHead[h]
		for b := 0; b < n; b++ {
			if !l.in[b] {
				continue
			}
			l.Blocks = append(l.Blocks, b)
			for _, s := range c.Succs[b] {
				if !l.in[s] {
					l.Exits = append(l.Exits, Edge{From: b, To: s})
				}
			}
		}
		loops = append(loops, l)
	}
	return loops
}
