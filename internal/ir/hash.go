package ir

import "crypto/sha256"

// Fingerprint is the sha256 content hash of a module's printed IR. It is
// the one module-identity key shared across the system: the fleet's
// prediction cache, the cluster coordinator's routing and the
// interpreter's compiled-program cache all key on it — so a serving worker
// that receives the same NF source in many requests compiles it exactly
// once, and the worker the coordinator routes a module to is the worker
// whose caches already hold both its prediction and its compiled program.
//
// Hashing the printed form rather than pointer identity matters for
// serving: modules parsed from submitted source get a fresh *Module per
// request, while identical source always prints (and therefore hashes)
// identically. Modules are immutable once built, so the hash is stable.
// The hash is memoized on the module: printing a large NF and hashing
// the text costs ~1ms and hundreds of allocations, and the fleet asks
// for the same module's identity on every cache lookup and machine
// construction.
func Fingerprint(m *Module) [sha256.Size]byte {
	m.fpOnce.Do(func() {
		m.fp = sha256.Sum256([]byte(m.String()))
	})
	return m.fp
}
