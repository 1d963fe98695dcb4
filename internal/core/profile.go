package core

import (
	"context"
	"fmt"

	"clara/internal/interp"
	"clara/internal/ir"
	"clara/internal/traffic"
)

// HostProfile is the workload-specific access profile Clara collects by
// running the NF on the host (with reverse-ported data-structure
// semantics, so control flow matches the NIC implementation — §3.3, §4.3).
type HostProfile struct {
	Packets int
	// GlobalFreq is stateful accesses per packet, per global (map probes
	// count as accesses to the map).
	GlobalFreq map[string]float64
	// AccessesPerPacket is the sum of GlobalFreq, added up in the module's
	// global declaration order so it is bit-identical run to run (a sum
	// over the map would follow Go's randomized iteration order).
	AccessesPerPacket float64
	// BlockAccess[global][block] counts accesses per basic block (the
	// §4.4 access vectors before normalization).
	BlockAccess map[string][]float64
	// BlockFreq counts block executions.
	BlockFreq []float64
}

// AccessVector returns the normalized per-block access vector of a global
// (the [p1..pk] of §4.4), or nil if it was never accessed.
func (hp *HostProfile) AccessVector(global string) []float64 {
	counts, ok := hp.BlockAccess[global]
	if !ok {
		return nil
	}
	var total float64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return nil
	}
	out := make([]float64, len(counts))
	for i, c := range counts {
		out[i] = c / total
	}
	return out
}

// ProfileSetup bundles what host profiling needs to execute an element.
type ProfileSetup struct {
	Setup    func(*interp.Machine) error
	LPMTable []interp.Route
	// ID names what Setup and LPMTable do, for callers that memoise on a
	// ProfileSetup (a func cannot be compared): two setups with the same
	// non-empty ID must seed the same state and routes. The request
	// resolver stamps the library element's name; a setup built anywhere
	// else leaves it empty, which means "do not memoise" whenever Setup or
	// LPMTable is set. Profiling itself never reads it.
	ID string
}

// ProfileOnHost executes n workload packets through the NF with
// NIC-faithful (reverse-ported) data-structure semantics and collects the
// access profile.
func ProfileOnHost(mod *ir.Module, ps ProfileSetup, wl traffic.Spec, n int) (*HostProfile, error) {
	return ProfileOnHostContext(context.Background(), mod, ps, wl, n)
}

// ProfileOnHostContext is ProfileOnHost with cancellation: the packet
// loop observes ctx, so a canceled analysis request stops profiling
// promptly instead of executing the full workload. The workload trace is
// served from the shared replay cache — a fleet profiling many NFs under
// the same spec generates the packet sequence once — and replaying it
// yields exactly the packets a fresh generator would. n = 0 builds the
// machine and runs Setup but no packet, and returns an empty profile.
func ProfileOnHostContext(ctx context.Context, mod *ir.Module, ps ProfileSetup, wl traffic.Spec, n int) (*HostProfile, error) {
	if n <= 0 {
		// No trace to replay; the spec is still the caller's to get right.
		if err := wl.Validate(); err != nil {
			return nil, err
		}
		return ProfileOnHostSourceContext(ctx, mod, ps, nil, n)
	}
	gen, err := traffic.Replay(wl, n)
	if err != nil {
		return nil, err
	}
	return ProfileOnHostSourceContext(ctx, mod, ps, gen, n)
}

// ProfileOnHostSource profiles over any packet source, e.g. a recorded
// trace (the paper's pcap-based profiles, §4.3).
func ProfileOnHostSource(mod *ir.Module, ps ProfileSetup, gen traffic.Source, n int) (*HostProfile, error) {
	return ProfileOnHostSourceContext(context.Background(), mod, ps, gen, n)
}

// ProfileOnHostSourceContext profiles over any packet source under a
// context. Cancellation is checked every 64 packets — coarse enough to be
// free, fine enough that profiling (the longest per-analysis stage) stops
// within microseconds of a client disconnect. gen is not read when n = 0;
// a negative n is an error.
func ProfileOnHostSourceContext(ctx context.Context, mod *ir.Module, ps ProfileSetup, gen traffic.Source, n int) (*HostProfile, error) {
	if n < 0 {
		return nil, fmt.Errorf("core: profiling %s: negative packet count %d", mod.Name, n)
	}
	m, err := interp.New(mod, interp.Config{LPMTable: ps.LPMTable})
	if err != nil {
		return nil, err
	}
	// The machine's state goes back to the interpreter's slabs on every
	// exit path, for the next job of any program. The profile below is
	// built from Counters slices, which Release leaves with this caller.
	defer m.Release()
	if ps.Setup != nil {
		if err := ps.Setup(m); err != nil {
			return nil, err
		}
	}
	// Profiling counts natively via interp.Counters and builds the
	// string-keyed profile maps once afterwards. The counts are identical
	// to what the OnBlock/OnState/OnAPI hooks would accumulate (integer
	// weights summed in float64 are exact well past any realistic packet
	// count).
	m.EnableCounters()
	// Sources that support caller-provided payload scratch (the trace
	// Replayer) make the loop allocation-free: each packet is fully
	// consumed by RunPacket before the next overwrites the buffer.
	bufSrc, buffered := gen.(interface {
		NextBuf([]byte) (traffic.Packet, []byte)
	})
	var pbuf []byte
	// p is hoisted out of the loop: RunPacket retains &p for the packet's
	// duration, so a per-iteration variable would escape and cost one heap
	// allocation per packet.
	var p traffic.Packet
	for i := 0; i < n; i++ {
		if i&63 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("core: profiling %s: %w", mod.Name, err)
			}
		}
		if buffered {
			p, pbuf = bufSrc.NextBuf(pbuf)
		} else {
			p = gen.Next()
		}
		if err := m.RunPacket(&p); err != nil {
			return nil, fmt.Errorf("core: profiling %s: %w", mod.Name, err)
		}
	}
	ctr := m.Counters()
	nblocks := ctr.NBlocks
	hp := &HostProfile{
		Packets:     n,
		GlobalFreq:  map[string]float64{},
		BlockAccess: map[string][]float64{},
		BlockFreq:   make([]float64, nblocks),
	}
	for b := 0; b < nblocks; b++ {
		hp.BlockFreq[b] = float64(ctr.Block[b])
	}
	for gi, g := range mod.Globals {
		var total uint64
		row := gi * nblocks
		for b := 0; b < nblocks; b++ {
			total += ctr.State[row+b] + ctr.API[row+b]
		}
		if total == 0 {
			continue
		}
		va := make([]float64, nblocks)
		for b := 0; b < nblocks; b++ {
			va[b] = float64(ctr.State[row+b] + ctr.API[row+b])
		}
		hp.BlockAccess[g.Name] = va
		freq := float64(total) / float64(n)
		hp.GlobalFreq[g.Name] = freq
		hp.AccessesPerPacket += freq
	}
	return hp, nil
}
