package traffic

import (
	"context"
	"sync"

	"clara/internal/memo"
)

// This file provides a process-wide cache of generated traces. A fleet
// run executes the same synthetic workload against every NF in a batch,
// and each analysis previously paid to rebuild the generator (which
// materializes every flow eagerly — 64k flows for the small-flows spec)
// and re-derive the identical packet sequence. Replay generates each
// (spec, length) trace once and replays the cached packets; a Replayer
// yields the exact sequence a fresh Generator would, packet for packet.

// traces holds the 16 most recently replayed specs. The evaluation uses a
// handful of standard specs; user-supplied specs (e.g. per-request
// workloads in serving mode) age out LRU so the cache cannot grow with an
// unbounded stream of distinct workloads.
var traces = memo.New[Spec, *traceEntry](16)

// TraceStoreStats reports the trace store's counters, for /metrics. The
// store is the process's, not one fleet's.
func TraceStoreStats() memo.Stats { return traces.Stats() }

// traceEntry caches one spec's generator together with the packets drawn
// from it so far; requests longer than any previous one extend the trace
// by drawing more packets from the retained generator.
type traceEntry struct {
	mu   sync.Mutex
	gen  *Generator
	pkts []Packet
}

// Replay returns a Replayer over the first n packets of spec's packet
// sequence, generating (or extending) the cached trace on first use. The
// replayed sequence is identical to what a fresh NewGenerator(spec)
// would produce. Safe for concurrent use; each call returns an
// independent cursor.
func Replay(spec Spec, n int) (*Replayer, error) {
	// A spec NewGenerator refuses is not retained.
	e, _, err := traces.Get(context.Background(), spec, func() (*traceEntry, error) {
		gen, err := NewGenerator(spec)
		if err != nil {
			return nil, err
		}
		return &traceEntry{gen: gen}, nil
	})
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	for len(e.pkts) < n {
		e.pkts = append(e.pkts, e.gen.Next())
	}
	// The trace Replayer copies each packet and its payload on Next, so
	// callers may mutate what they receive (NFs rewrite headers and
	// payload bytes in place) without corrupting the shared trace.
	return NewReplayer(e.pkts[:n:n])
}

// Len returns the trace length before wrap-around.
func (r *Replayer) Len() int { return len(r.pkts) }
