package nicsim

import (
	"fmt"
	"slices"

	"clara/internal/interp"
	"clara/internal/ir"
	"clara/internal/isa"
	"clara/internal/niccc"
)

// Placement assigns each stateful global to a memory region. Globals absent
// from the map go to EMEM — the paper's naive baseline (§5.5).
type Placement map[string]isa.Region

// NF is a ported network function: the program plus its porting decisions
// (accelerator usage, state placement, variable packing, flow cache). The
// deltas between two NF values for the same module are exactly the "porting
// strategies" Clara suggests.
type NF struct {
	Name  string
	Mod   *ir.Module
	Accel niccc.AccelConfig

	// Placement of stateful globals (nil = everything in EMEM).
	Placement Placement

	// Packs is the memory-coalescing plan: groups of scalar globals
	// allocated adjacently and fetched/written as one access (§4.4).
	// nil = no coalescing (each scalar accessed individually).
	Packs [][]string

	// LPMTable configures the lpm_hw engine for this NF.
	LPMTable []interp.Route

	// Setup pre-populates NF state (rules, table entries) before traffic.
	Setup func(*interp.Machine) error
}

// Built is a compiled, state-initialized NF ready for trace generation.
type Built struct {
	NF      *NF
	Prog    *isa.Program
	Machine *interp.Machine
	place   []isa.Region // per-global index
	// packOf is each global's coalescing pack (-1 for none), packHead
	// each pack's first member (-1 for an empty pack) and packSz its bytes.
	packOf   []int
	packHead []int
	packSz   []int
}

// Build compiles the NF with the vendor toolchain, instantiates its
// state, applies Setup, and validates the placement against region
// capacities.
func (nf *NF) Build(params Params) (*Built, error) {
	prog, err := niccc.Compile(nf.Mod, niccc.Options{Accel: nf.Accel})
	if err != nil {
		return nil, err
	}
	m, err := interp.New(nf.Mod, interp.Config{LPMTable: nf.LPMTable})
	if err != nil {
		return nil, err
	}
	if nf.Setup != nil {
		if err := nf.Setup(m); err != nil {
			return nil, fmt.Errorf("nicsim: %s setup: %w", nf.Name, err)
		}
	}
	b := &Built{NF: nf, Prog: prog, Machine: m, packOf: make([]int, len(nf.Mod.Globals))}

	// Resolve placement and check capacities. Regions are tallied in a
	// fixed array so the overflow error is deterministic when several
	// regions overflow at once.
	var used [isa.NumRegions]int
	for _, g := range nf.Mod.Globals {
		r := isa.EMEM
		if nf.Placement != nil {
			if pr, ok := nf.Placement[g.Name]; ok {
				r = pr
			}
		}
		if r == isa.LMEM {
			return nil, fmt.Errorf("nicsim: %s: global %q placed in LMEM (core-private, not addressable state)", nf.Name, g.Name)
		}
		b.place = append(b.place, r)
		used[r] += g.SizeBytes()
	}
	for r, bytes := range used {
		if bytes > params.Regions[r].Capacity {
			return nil, fmt.Errorf("nicsim: %s: placement overflows %s (%d > %d bytes)",
				nf.Name, isa.Region(r), bytes, params.Regions[r].Capacity)
		}
	}

	// Index the coalescing packs by global.
	for gi := range b.packOf {
		b.packOf[gi] = -1
	}
	for pi, pack := range nf.Packs {
		size, head := 0, -1
		for _, name := range pack {
			gi := slices.IndexFunc(nf.Mod.Globals, func(g *ir.Global) bool { return g.Name == name })
			if gi < 0 || nf.Mod.Globals[gi].Kind != ir.GScalar {
				return nil, fmt.Errorf("nicsim: %s: pack member %q is not a scalar global", nf.Name, name)
			}
			if b.packOf[gi] >= 0 {
				return nil, fmt.Errorf("nicsim: %s: %q appears in two packs", nf.Name, name)
			}
			if head < 0 {
				head = gi
			}
			b.packOf[gi] = pi
			size += nf.Mod.Globals[gi].Elem.Size()
		}
		b.packHead = append(b.packHead, head)
		b.packSz = append(b.packSz, size)
	}
	return b, nil
}
