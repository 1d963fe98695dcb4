package fleet

import (
	"crypto/sha256"
	"sync"

	"clara/internal/analysis"
	"clara/internal/core"
	"clara/internal/niccc"
	"clara/internal/traffic"
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

// resultCacheCap is the result store's entry cap. An entry is one job's
// Insights plus, once a server has answered with it, their ~4.5 KB of
// JSON; only modules seen more than once are admitted (see Fleet.analyze),
// so the cap bounds a working set of repeated jobs, not the request rate.
const resultCacheCap = 512

// resultKey identifies one memoized job outcome. Insights are a pure
// function of the module's content (which covers the name that becomes
// Insights.NF), the accelerator configuration, the whole traffic spec,
// what Setup and LPMTable do — named by ProfileSetup.ID, since a func
// cannot be compared — and the fleet's tool, which the store shares its
// lifetime with. The profiled packet count is a constant of
// core.AnalyzeWorkloadContext, and the interpreter's rand32 sequence is a
// constant of the interpreter.
type resultKey struct {
	pred  predKey
	wl    traffic.Spec
	setup string
}

// memoisable reports whether ps says enough about itself to key a result
// on: a setup that seeds state or routes must name what it does.
func memoisable(ps core.ProfileSetup) bool {
	return ps.ID != "" || (ps.Setup == nil && ps.LPMTable == nil)
}

// analysed is one successful analysis as a Result carries it and the
// result store keeps it: the insights, the per-job figures Stats totals
// are built from, and the insights' wire form, encoded at most once
// however many replies it is spliced into. Read-only once built; shared
// by every job the store answers with it.
type analysed struct {
	ins                               *core.Insights
	lint                              analysis.Summary
	payloadLoops, payloadKeyedStructs int

	encOnce sync.Once
	enc     []byte
	encErr  error
}

func newAnalysed(ins *core.Insights) *analysed {
	a := &analysed{ins: ins, lint: analysis.Summarize(ins.Diagnostics)}
	if sp := ins.StateProfile; sp != nil {
		a.payloadLoops = sp.PayloadLoops()
		for _, s := range sp.Structs {
			if s.PayloadKeyed {
				a.payloadKeyedStructs++
			}
		}
	}
	return a
}

// EncodedInsights returns encode(r.Insights) — the door's wire form of
// them — or nil for a job that has none. It is computed at most once per
// analysis, however many Results the result store answers with it, so
// every caller of one Fleet must pass the same encoder; the bytes are
// shared and must not be modified. Only a door that writes a wire form
// pays for one: Run itself never encodes.
func (r *Result) EncodedInsights(encode func(*core.Insights) ([]byte, error)) ([]byte, error) {
	a := r.analysed
	if a == nil {
		return nil, nil
	}
	a.encOnce.Do(func() { a.enc, a.encErr = encode(a.ins) })
	return a.enc, a.encErr
}
