package nicsim

import (
	"fmt"

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
	packOf  map[string]int
	packSz  []int
}

// Build compiles the NF with the vendor toolchain, instantiates NIC-mode
// state, applies Setup, and validates the placement against region
// capacities.
func (nf *NF) Build(params Params) (*Built, error) {
	prog, err := niccc.Compile(nf.Mod, niccc.Options{Accel: nf.Accel})
	if err != nil {
		return nil, err
	}
	m, err := interp.New(nf.Mod, interp.Config{Mode: interp.NICMap, LPMTable: nf.LPMTable})
	if err != nil {
		return nil, err
	}
	if nf.Setup != nil {
		if err := nf.Setup(m); err != nil {
			return nil, fmt.Errorf("nicsim: %s setup: %w", nf.Name, err)
		}
	}
	b := &Built{NF: nf, Prog: prog, Machine: m, packOf: map[string]int{}}

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

	// Index the coalescing packs.
	for pi, pack := range nf.Packs {
		size := 0
		for _, name := range pack {
			g := nf.Mod.Global(name)
			if g == nil || g.Kind != ir.GScalar {
				return nil, fmt.Errorf("nicsim: %s: pack member %q is not a scalar global", nf.Name, name)
			}
			if _, dup := b.packOf[name]; dup {
				return nil, fmt.Errorf("nicsim: %s: %q appears in two packs", nf.Name, name)
			}
			b.packOf[name] = pi
			size += g.Elem.Size()
		}
		b.packSz = append(b.packSz, size)
	}
	return b, nil
}

// regionOf returns the placed region of a global (PktMeta pins to CTM).
func (b *Built) regionOf(name string) isa.Region {
	if name == niccc.PktMeta {
		return isa.CTM
	}
	for i, g := range b.NF.Mod.Globals {
		if g.Name == name {
			return b.place[i]
		}
	}
	return isa.EMEM
}
