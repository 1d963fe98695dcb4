package fleet

import (
	"crypto/sha256"

	"clara/internal/niccc"
)

// predCacheCap is the prediction store's entry cap. Each entry is one
// (module, accel) prediction — a few KB — so a long-running server, which
// sees an unbounded stream of submitted-source modules, holds a few MB.
const predCacheCap = 512

// predKey identifies one memoized prediction: the module's content hash
// (ir.Fingerprint) plus the accelerator configuration the prediction
// assumed. Content hashing rather than pointer identity matters for
// serving: modules parsed from submitted source get a fresh *ir.Module
// per request, so a pointer key could never hit, while the same source
// resubmitted hashes to the same key. The cluster coordinator routes jobs
// by the same hash, so every module lands on the one worker whose store
// can already hold its prediction.
type predKey struct {
	hash  [sha256.Size]byte
	accel niccc.AccelConfig
}
