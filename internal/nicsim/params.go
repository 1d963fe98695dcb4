// Package nicsim simulates the baremetal SoC SmartNIC the paper evaluates
// on (a Netronome-Agilio-class device): many wimpy run-to-completion cores,
// a four-level stateful memory hierarchy with per-level bandwidth, hardware
// engines (checksum, CRC, LPM, hash), an ingress flow cache, and a packet
// IO ceiling.
//
// The simulator is trace-based: an NF's packet handler is executed
// functionally (internal/interp, NIC data-structure semantics) while its
// dynamic cost events — compute cycles from the compiled NIC program,
// stateful memory accesses, engine operations — are recorded. Traces are
// then replayed under a discrete-event contention model for any core count
// or colocation mix, which makes parameter sweeps (Figure 11) cheap: the
// trace is generated once per (NF, workload).
package nicsim

import (
	"fmt"
	"math"

	"clara/internal/isa"
)

// RegionParams models one level of the memory hierarchy.
type RegionParams struct {
	// Latency is the unloaded access latency in core cycles.
	Latency int
	// Issue is the server occupancy per access in cycles — the reciprocal
	// bandwidth of the level. 0 means private/unbounded (LMEM).
	Issue float64
	// Capacity is the usable stateful capacity in bytes.
	Capacity int
}

// Server indices for the contention model: the four shared memory levels
// followed by the hardware engines.
const (
	srvCLS = iota
	srvCTM
	srvIMEM
	srvEMEM
	srvCsum
	srvCrc
	srvLpm
	srvHash
	numServers
	srvNone = 255
)

// EngineParams models one hardware engine.
type EngineParams struct {
	Latency int     // base operation latency, cycles
	Issue   float64 // occupancy per op (pipelining), cycles
}

// Params is the full hardware model. DefaultParams documents the concrete
// values our EXPERIMENTS.md numbers are produced with.
type Params struct {
	NumCores int
	CoreGHz  float64
	// ThreadsPerCore models the hardware threads each core multiplexes to
	// hide memory latency (Netronome MEs run 8 contexts). While one thread
	// waits on a memory or engine access, the core runs another; compute
	// cycles still serialize on the core pipeline.
	ThreadsPerCore int

	Regions [isa.NumRegions]RegionParams

	// EMEM carries a small SRAM cache in front of DRAM (the paper's §5.4
	// setup: "DRAM-based EMEM with a small SRAM cache").
	EMEMCacheLines  int // direct-mapped, 64B lines
	EMEMCacheHitLat int // hit latency, cycles
	EMEMCacheIssue  float64

	Csum EngineParams
	Crc  EngineParams // latency grows with bytes processed
	Lpm  EngineParams
	Hash EngineParams

	// IngressMpps is the packet IO ceiling of the NIC (MAC + DMA path).
	IngressMpps float64

	// Flow cache: an accelerated flow-match mechanism in the ingress path
	// (§2: LPM implementations using it outperform regular match
	// processing by orders of magnitude).
	FlowCacheEntries   int
	FlowCacheHitCycles int

	// WireOverheadCycles is the fixed ingress+egress path cost added to
	// every packet's latency.
	WireOverheadCycles int
}

// DefaultParams returns the reference hardware model: 60 cores at 1.2 GHz
// (§4.2), hierarchy latencies ordered CLS < CTM < IMEM < EMEM (§4.3).
func DefaultParams() Params {
	var p Params
	p.NumCores = 60
	p.CoreGHz = 1.2
	p.ThreadsPerCore = 8
	p.Regions[isa.LMEM] = RegionParams{Latency: 2, Issue: 0, Capacity: 4 << 10}
	p.Regions[isa.CLS] = RegionParams{Latency: 26, Issue: 0.6, Capacity: 64 << 10}
	p.Regions[isa.CTM] = RegionParams{Latency: 60, Issue: 1.0, Capacity: 224 << 10}
	p.Regions[isa.IMEM] = RegionParams{Latency: 160, Issue: 2.0, Capacity: 4 << 20}
	p.Regions[isa.EMEM] = RegionParams{Latency: 490, Issue: 4.0, Capacity: 1 << 30}
	p.EMEMCacheLines = 4096
	p.EMEMCacheHitLat = 260
	p.EMEMCacheIssue = 2.0
	p.Csum = EngineParams{Latency: 300, Issue: 4}
	p.Crc = EngineParams{Latency: 40, Issue: 8}
	p.Lpm = EngineParams{Latency: 55, Issue: 4}
	p.Hash = EngineParams{Latency: 18, Issue: 2}
	p.IngressMpps = 54
	p.FlowCacheEntries = 2048
	p.FlowCacheHitCycles = 120
	p.WireOverheadCycles = 140
	return p
}

// Validate sanity-checks a parameter set. Beyond the model's own shape
// (a positive core count, latencies increasing along the hierarchy) it
// refuses every cost the replay could not keep ordered: the simulator
// keys its event heap by the bits of clocks that start at +0, and those
// bits sort as the times do only while every cycle count added is finite
// and not negative. A latency must fit an Event's int32 cycles and an
// issue cost its float32 occupancy.
func (p *Params) Validate() error {
	if p.NumCores <= 0 || !finitePositive(p.CoreGHz) {
		return fmt.Errorf("nicsim: cores/frequency must be positive and finite")
	}
	if p.ThreadsPerCore <= 0 {
		return fmt.Errorf("nicsim: ThreadsPerCore must be positive")
	}
	prev := 0
	for r := isa.CLS; r <= isa.EMEM; r++ {
		if p.Regions[r].Latency <= prev {
			return fmt.Errorf("nicsim: region latencies must increase along the hierarchy (%s)", r)
		}
		prev = p.Regions[r].Latency
	}
	for r, rp := range p.Regions {
		if err := checkCost(isa.Region(r).String(), rp.Latency, rp.Issue); err != nil {
			return err
		}
	}
	for _, c := range []struct {
		name  string
		lat   int
		issue float64
	}{
		{"EMEM cache", p.EMEMCacheHitLat, p.EMEMCacheIssue},
		{"Csum", p.Csum.Latency, p.Csum.Issue},
		{"Crc", p.Crc.Latency, p.Crc.Issue},
		{"Lpm", p.Lpm.Latency, p.Lpm.Issue},
		{"Hash", p.Hash.Latency, p.Hash.Issue},
		{"FlowCacheHitCycles", p.FlowCacheHitCycles, 0},
		{"WireOverheadCycles", p.WireOverheadCycles, 0},
	} {
		if err := checkCost(c.name, c.lat, c.issue); err != nil {
			return err
		}
	}
	if !finitePositive(p.IngressMpps) {
		return fmt.Errorf("nicsim: ingress ceiling must be positive and finite")
	}
	return nil
}

func finitePositive(v float64) bool { return v > 0 && v <= math.MaxFloat64 }

// checkCost refuses a latency outside an Event's int32 cycles or an issue
// cost outside its float32 occupancy, negative or non-finite ones included.
func checkCost(name string, lat int, issue float64) error {
	if lat < 0 || lat > math.MaxInt32 {
		return fmt.Errorf("nicsim: %s latency %d outside [0, %d]", name, lat, math.MaxInt32)
	}
	if !(issue >= 0 && issue <= math.MaxFloat32) {
		return fmt.Errorf("nicsim: %s issue cost %v must be finite and not negative", name, issue)
	}
	return nil
}

// IngressPPS returns the packet IO ceiling in packets per second — the
// budget the offload controller's fast path is bounded by.
func (p Params) IngressPPS() float64 { return p.IngressMpps * 1e6 }

// ExceptionPathCores returns the cores reserved for the slow (exception)
// path: run-to-completion NICs dedicate almost all cores to the datapath
// pipeline, leaving a small reservation (1/16 of the cores, minimum 2)
// to run the full NF for flows that have no installed rule yet. The
// offload controller derives its slow-path capacity from this.
func (p Params) ExceptionPathCores() int {
	n := p.NumCores / 16
	if n < 2 {
		n = 2
	}
	return n
}

// serverOf maps a memory region to its contention server.
func serverOf(r isa.Region) uint8 {
	switch r {
	case isa.CLS:
		return srvCLS
	case isa.CTM:
		return srvCTM
	case isa.IMEM:
		return srvIMEM
	case isa.EMEM:
		return srvEMEM
	default:
		return srvNone // LMEM is core-private
	}
}
