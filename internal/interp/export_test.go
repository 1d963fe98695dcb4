package interp

import (
	"sync"

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
