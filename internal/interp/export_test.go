package interp

import "clara/internal/traffic"

// RunReference runs one packet through the reference loop whatever the
// machine's hooks — the oracle the step engine is compared against.
func (m *Machine) RunReference(p *traffic.Packet) error { return m.runReference(p) }
