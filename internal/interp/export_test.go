package interp

import (
	"slices"
	"sync"

	"clara/internal/ir"
	"clara/internal/traffic"
)

// RunReference runs one packet through the reference loop whatever the
// machine's hooks — the oracle the step engine is compared against.
func (m *Machine) RunReference(p *traffic.Packet) error { return m.runReference(p) }

// DropSlabs empties the state-slab pools, so the next machine is built on
// memory no program has used. Not safe while other goroutines build or
// release machines.
func DropSlabs() {
	wordSlabs, flagSlabs = slabPool[uint64]{}, slabPool[bool]{}
	mapSlabs = [slabClasses]sync.Pool{}
}

// SetMapGeneration stamps gen on every NIC map table of m. Entries
// inserted under another generation read as free afterwards, so call it on
// an empty machine.
func (m *Machine) SetMapGeneration(gen uint32) {
	for _, g := range m.gl {
		if g.nmap != nil {
			g.nmap.gen = gen
		}
	}
}

// Compiles reports how many times compileModule has run in this process:
// programFor's compute never fails, so every program-cache miss is one
// compile.
func Compiles() int64 { return programs.Counts().Misses }

// Chains returns the blocks of every chain in mod's lowering, chain 0
// (rooted at the entry block) first.
func Chains(mod *ir.Module) ([][]int, error) {
	prog, err := programFor(mod)
	if err != nil {
		return nil, err
	}
	l := prog.lowering()
	out := make([][]int, len(l.chains))
	for c, ch := range l.chains {
		for _, b := range l.tab[ch.lo:ch.mid] {
			out[c] = append(out[c], int(b))
		}
	}
	return out, nil
}

// SetFuel changes m's per-packet step budget from the next packet on.
func (m *Machine) SetFuel(n int) { m.cfg.Fuel = n }

// Uncounted runs one packet through run with m's counters detached, so
// neither loop counts it.
func Uncounted(run func(*Machine, *traffic.Packet) error) func(*Machine, *traffic.Packet) error {
	return func(m *Machine, p *traffic.Packet) error {
		c := m.ctr
		m.ctr = nil
		defer func() { m.ctr = c }()
		return run(m, p)
	}
}

// APINames returns every framework API, sorted.
func APINames() []string {
	names := make([]string, 0, len(ir.APIs))
	for _, a := range ir.APIs {
		names = append(names, a.Name)
	}
	slices.Sort(names)
	return names
}

// CallSteps returns the callee of every step in mod's lowering that hands
// its API call to Machine.call, in chain order.
func CallSteps(mod *ir.Module) ([]string, error) {
	prog, err := programFor(mod)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, ch := range prog.lowering().chains {
		for _, s := range ch.steps {
			if s.op == xCall {
				out = append(out, ir.APIs[s.call.api].Name)
			}
		}
	}
	return out, nil
}
