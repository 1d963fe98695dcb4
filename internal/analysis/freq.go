package analysis

import (
	"fmt"
	"sort"
	"strings"

	"clara/internal/ir"
)

// Static state-access frequency estimation: how many times per packet is
// each stateful structure touched, without running any traffic? The model
// is the classic static profile — branch probabilities × loop trip
// counts:
//
//   - each function body is propagated as a DAG (back edges dropped) in
//     reverse postorder, splitting block mass 50/50 at two-way branches;
//     branch sides range analysis proves infeasible get 0 (the surviving
//     side everything), and loop-exit edges carry the full post-loop mass
//     rather than halving the body on every header test;
//   - every block inside a natural loop is multiplied by the loop's
//     inferred trip count (capped; unbounded loops get a fixed pessimistic
//     estimate), nested loops multiply;
//   - function entry frequencies flow top-down over the call graph from
//     the packet handler (callsite block frequency × caller frequency),
//     so a helper called from a hot loop is hot. Recursive SCC-internal
//     edges contribute once (the frontend forbids recursion anyway).
//
// The per-structure weights replace the uniform frequencies the §4.3
// placement ILP falls back to when no dynamic profile exists, and feed
// the offload controller's fast/slow-path capacity split.

const (
	// freqTripCap bounds a single loop's multiplier so one deep loop
	// cannot erase every other structure's weight (the ILP only needs
	// relative order, and trip bounds beyond this are budget violations
	// the linter reports separately).
	freqTripCap = 256
	// freqDefaultTrips is the multiplier assumed for loops whose trip
	// count the range analysis cannot bound.
	freqDefaultTrips = 8
)

// FreqInfo is the static execution-frequency estimate for one module.
type FreqInfo struct {
	CG *CallGraph
	// FnFreq[node] is the estimated invocations of each function per
	// packet (handler = 1).
	FnFreq []float64
	// Loops profiles every natural loop's bound and header frequency; the
	// state profile adds its taint class.
	Loops []LoopProfile
	heads []int // each loop's header block
	// GlobalWeight is the estimated stateful accesses per packet, per
	// structure.
	GlobalWeight map[string]float64
}

// ComputeFreq runs the static frequency estimate over a call graph.
func ComputeFreq(cg *CallGraph) *FreqInfo {
	fi := &FreqInfo{
		CG:           cg,
		FnFreq:       make([]float64, len(cg.Funcs)),
		GlobalWeight: map[string]float64{},
	}
	local := make([][]float64, len(cg.Funcs))
	for node := range cg.Funcs {
		local[node] = fi.localFreq(node)
	}
	// Entry frequencies: roots (no in-module callers — the packet handler
	// and hand-built entry points) run once per packet; everything else
	// accumulates callsite frequency top-down in caller-first SCC order.
	for node := range cg.Funcs {
		if len(cg.Callers[node]) == 0 {
			fi.FnFreq[node] = 1
		}
	}
	sccs := cg.SCCs()
	for k := len(sccs) - 1; k >= 0; k-- {
		for _, node := range sccs[k] {
			f := cg.Funcs[node]
			for _, b := range f.Blocks {
				for _, in := range b.Instrs {
					if in.Op != ir.OpCall {
						continue
					}
					j := cg.Node(in.Callee)
					if j < 0 || cg.SCCOf(j) == cg.SCCOf(node) {
						continue // intrinsic, or recursion counted once
					}
					fi.FnFreq[j] += fi.FnFreq[node] * local[node][b.Index]
				}
			}
		}
	}
	// Scale loop header frequencies now that entry frequencies are known.
	for i := range fi.Loops {
		fi.Loops[i].Freq *= fi.FnFreq[fi.CG.Node(fi.Loops[i].Fn)]
	}
	// Per-structure weights: one access per GLoad/GStore and per stateful
	// framework call, weighted by its block's frequency.
	for node, f := range cg.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if g := statefulGlobal(cg, in); g != "" {
					fi.GlobalWeight[g] += fi.FnFreq[node] * local[node][b.Index]
				}
			}
		}
	}
	return fi
}

// statefulGlobal returns the structure an instruction touches, or "".
func statefulGlobal(cg *CallGraph, in *ir.Instr) string {
	switch in.Op {
	case ir.OpGLoad, ir.OpGStore:
		return in.Global
	case ir.OpCall:
		if in.Global != "" && cg.Node(in.Callee) < 0 {
			return in.Global
		}
	}
	return ""
}

// localFreq propagates per-invocation block frequencies for one function
// and records its loop multipliers.
func (fi *FreqInfo) localFreq(node int) []float64 {
	ri := ComputeRanges(fi.CG)[node]
	c, f := ri.c, ri.c.F
	loops := c.NaturalLoops()

	// Loop multiplier per block: product of trips over containing loops.
	mult := make([]float64, len(f.Blocks))
	for i := range mult {
		mult[i] = 1
	}
	back := map[[2]int]bool{}
	first := len(fi.Loops)
	for _, l := range loops {
		tc := ri.InferTripCount(l)
		trips := float64(freqDefaultTrips)
		if tc.Bounded {
			n := tc.Max
			if n > freqTripCap {
				n = freqTripCap
			}
			if n < 1 {
				n = 1
			}
			trips = float64(n)
		}
		for _, bi := range l.Blocks {
			mult[bi] *= trips
		}
		for _, u := range l.Backs {
			back[[2]int{u, l.Head}] = true
		}
		pos := loopPos(c, l)
		fi.Loops = append(fi.Loops, LoopProfile{
			Fn: f.Name, Line: pos.Line, Col: pos.Col,
			Bounded: tc.Bounded, MaxTrips: tc.Max,
		})
		fi.heads = append(fi.heads, l.Head)
	}

	// Acyclic propagation in RPO over forward edges. Infeasible sides get
	// zero. Loop-exit edges are special: in-loop DAG mass is per loop
	// *entry* (the trip multiplier supplies iteration count), so the exit
	// side carries the full post-loop mass and the in-loop side keeps the
	// full per-entry mass — a 50/50 split at the loop head would halve
	// every body frequency. Ordinary branches split evenly.
	exitsLoop := func(b, s int) bool {
		for _, l := range loops {
			if l.Contains(b) && !l.Contains(s) {
				return true
			}
		}
		return false
	}
	dag := make([]float64, len(f.Blocks))
	dag[0] = 1
	for _, b := range c.RPO {
		mass := dag[b]
		if mass == 0 {
			continue
		}
		var norm, exits []int
		for _, s := range c.Succs[b] {
			if back[[2]int{b, s}] || !ri.EdgeFeasible(b, s) {
				continue
			}
			if exitsLoop(b, s) {
				exits = append(exits, s)
			} else {
				norm = append(norm, s)
			}
		}
		if len(norm) > 0 {
			p := mass / float64(len(norm))
			for _, s := range norm {
				dag[s] += p
			}
		}
		if len(exits) > 0 {
			p := mass / float64(len(exits))
			for _, s := range exits {
				dag[s] += p
			}
		}
	}
	freq := make([]float64, len(f.Blocks))
	for b := range freq {
		freq[b] = dag[b] * mult[b]
	}
	// A loop header's DAG mass is its entry mass; the header actually
	// runs entry × trips times, which freq already reflects.
	for i := first; i < len(fi.Loops); i++ {
		fi.Loops[i].Freq = freq[fi.heads[i]]
	}
	return freq
}

// ---------------------------------------------------------------------------
// StateProfile: the merged static profile (taint × frequency) that the
// placement ILP, the offload controller, and reports consume.

// LoopProfile classifies one loop for the profile report.
type LoopProfile struct {
	Fn               string  `json:"fn"`
	Line             int     `json:"line,omitempty"`
	Col              int     `json:"col,omitempty"`
	Bounded          bool    `json:"bounded"`
	MaxTrips         uint64  `json:"max_trips,omitempty"`
	Freq             float64 `json:"freq"`
	PayloadDependent bool    `json:"payload_dependent"`
	Cause            string  `json:"cause,omitempty"`
}

// StructProfile carries one structure's static weight and key class.
type StructProfile struct {
	Name         string  `json:"name"`
	Kind         string  `json:"kind"`
	Bytes        int     `json:"bytes"`
	Weight       float64 `json:"weight"`
	Reads        int     `json:"reads"`
	Writes       int     `json:"writes"`
	PayloadKeyed bool    `json:"payload_keyed"`
	Cause        string  `json:"cause,omitempty"`
}

// StateProfile is the static per-packet profile of an element: every
// natural loop and every stateful structure, classified header-only vs
// payload-dependent and weighted by estimated access frequency.
type StateProfile struct {
	Loops   []LoopProfile   `json:"loops,omitempty"`
	Structs []StructProfile `json:"structs,omitempty"`
}

// ComputeStateProfile derives the static profile of a module.
func ComputeStateProfile(m *ir.Module) *StateProfile {
	return stateProfile(BuildCallGraph(m))
}

func stateProfile(cg *CallGraph) *StateProfile {
	ti := ComputeTaint(cg)
	fi := ComputeFreq(cg)
	sp := &StateProfile{Loops: fi.Loops}
	for i, lp := range sp.Loops {
		if lt, ok := ti.LoopClass(lp.Fn, fi.heads[i]); ok {
			sp.Loops[i].PayloadDependent, sp.Loops[i].Cause = lt.PayloadDependent(), lt.Cause()
		}
	}
	sort.SliceStable(sp.Loops, func(i, j int) bool {
		a, b := sp.Loops[i], sp.Loops[j]
		if a.Fn != b.Fn {
			return a.Fn < b.Fn
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Col < b.Col
	})

	// Per-structure: weight from the frequency estimate, key class joined
	// over every access site.
	for _, g := range cg.M.Globals {
		st := ti.Accesses[g.Name]
		prof := StructProfile{
			Name: g.Name, Kind: g.Kind.String(), Bytes: g.SizeBytes(),
			Weight: fi.GlobalWeight[g.Name],
			Reads:  st.reads, Writes: st.writes,
			PayloadKeyed: st.key.t.Has(TaintPayload),
		}
		if st.reads+st.writes > 0 {
			prof.Cause = causeString(st.key)
		}
		sp.Structs = append(sp.Structs, prof)
	}
	return sp
}

// GlobalFreq returns the per-structure access weights in the shape the
// placement ILP consumes (a structure with zero estimated accesses keeps
// a small floor so placement still considers it).
func (sp *StateProfile) GlobalFreq() map[string]float64 {
	out := make(map[string]float64, len(sp.Structs))
	for _, s := range sp.Structs {
		w := s.Weight
		if w <= 0 {
			w = 0.01
		}
		out[s.Name] = w
	}
	return out
}

// HeaderOnlyShare estimates the fraction of stateful access weight whose
// keys a header-only fast path could compute: weight on structures never
// keyed by payload, over total weight. Stateless elements (no accesses)
// report 1.
func (sp *StateProfile) HeaderOnlyShare() float64 {
	total, header := 0.0, 0.0
	for _, s := range sp.Structs {
		total += s.Weight
		if !s.PayloadKeyed {
			header += s.Weight
		}
	}
	if total == 0 {
		return 1
	}
	return header / total
}

// PayloadLoops counts loops whose bounds depend on payload bytes.
func (sp *StateProfile) PayloadLoops() int {
	n := 0
	for _, l := range sp.Loops {
		if l.PayloadDependent {
			n++
		}
	}
	return n
}

// Render formats the full profile (classification + frequencies) for
// reports.
func (sp *StateProfile) Render() string { return sp.render(true, true) }

// RenderTaint formats the classification view — every loop and structure
// tagged header-only vs payload-dependent with its cause. Stable and
// frequency-free, so taint goldens don't churn when the frequency model
// is tuned.
func (sp *StateProfile) RenderTaint() string { return sp.render(false, true) }

// RenderFreq formats the frequency view: per-loop applied trip
// multipliers and per-structure static access weights.
func (sp *StateProfile) RenderFreq() string { return sp.render(true, false) }

// render writes one line per loop and structure, with frequencies and
// weights if freq is set and the taint class, sizes and counts if class
// is.
func (sp *StateProfile) render(freq, class bool) string {
	var b strings.Builder
	classify := func(payload bool, cause string) {
		if !class {
			return
		}
		c := "header-only"
		if payload {
			c = "payload-dependent"
		}
		fmt.Fprintf(&b, " class=%s", c)
		if cause != "" {
			fmt.Fprintf(&b, " (%s)", cause)
		}
	}
	for _, l := range sp.Loops {
		bound := "unbounded"
		if l.Bounded {
			bound = fmt.Sprintf("max=%d", l.MaxTrips)
		}
		fmt.Fprintf(&b, "loop %s:%d:%d %s", l.Fn, l.Line, l.Col, bound)
		if freq {
			fmt.Fprintf(&b, " freq=%s", fmtFreq(l.Freq))
		}
		classify(l.PayloadDependent, l.Cause)
		b.WriteByte('\n')
	}
	for _, s := range sp.Structs {
		fmt.Fprintf(&b, "state %s", s.Name)
		if class {
			fmt.Fprintf(&b, " kind=%s bytes=%d", s.Kind, s.Bytes)
		}
		if freq {
			fmt.Fprintf(&b, " weight=%s", fmtFreq(s.Weight))
		}
		if class {
			fmt.Fprintf(&b, " reads=%d writes=%d", s.Reads, s.Writes)
		}
		classify(s.PayloadKeyed, s.Cause)
		b.WriteByte('\n')
	}
	return b.String()
}

// fmtFreq renders a frequency with enough digits to be stable and short.
func fmtFreq(v float64) string {
	s := fmt.Sprintf("%.4f", v)
	s = strings.TrimRight(s, "0")
	return strings.TrimRight(s, ".")
}
