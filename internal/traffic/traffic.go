// Package traffic models packets and generates synthetic workloads, playing
// the role of trafgen in the paper's testbed (§5.1). A workload
// specification names the same knobs the paper's workload specs use: packet
// sizes, the number of concurrent flows, and the IP address (flow
// popularity) distribution.
package traffic

import (
	"fmt"
	"math/rand"
)

// Protocol numbers used by the generator.
const (
	ProtoTCP = 6
	ProtoUDP = 17
)

// TCP flag bits.
const (
	FlagSYN = 1 << 1
	FlagACK = 1 << 4
)

// EthIPv4 is the Ethernet type for IPv4.
const EthIPv4 = 0x0800

// Packet is a parsed packet as the NF framework exposes it. SmartNIC packet
// IO engines deliver parsed metadata to the cores (nbi_meta_pkt_info in
// Netronome firmware); we model that directly rather than raw bytes.
type Packet struct {
	Time    uint64 // ingress timestamp, nanoseconds
	Len     uint16 // wire length in bytes
	EthType uint16
	Proto   uint8 // IP protocol
	SrcIP   uint32
	DstIP   uint32
	TTL     uint8
	IPLen   uint16 // IP total length
	IPHL    uint8  // IP header length in 32-bit words
	SrcPort uint16
	DstPort uint16
	Seq     uint32
	Ack     uint32
	TCPFlag uint8
	TCPOff  uint8 // TCP data offset in 32-bit words
	Payload []byte

	// Disposition, filled in by the NF.
	OutPort     int32 // -1 = dropped, -2 = no decision yet
	CsumUpdated bool
}

// Reset clears the disposition fields before handing the packet to an NF.
func (p *Packet) Reset() {
	p.OutPort = -2
	p.CsumUpdated = false
}

// Dropped reports whether the NF dropped the packet.
func (p *Packet) Dropped() bool { return p.OutPort == -1 }

// FlowKey returns the canonical 5-tuple-ish key used by stateful NFs.
func (p *Packet) FlowKey() uint64 {
	return uint64(p.SrcIP)<<32 | uint64(p.DstIP)
}

// Spec describes a synthetic workload.
type Spec struct {
	Name      string
	NumFlows  int     // number of concurrent flows
	PktSize   int     // wire size in bytes (>= 64)
	ZipfS     float64 // flow-popularity skew; 0 = uniform, >1 = heavy head
	SYNRatio  float64 // fraction of TCP packets carrying SYN
	UDPRatio  float64 // fraction of packets that are UDP
	RatePps   float64 // offered load in packets/second (0 = back-to-back)
	PayloadB  int     // payload bytes carried per packet (capped by PktSize)
	Seed      int64
	ServerNet uint32 // destination network (fixed /24 unless 0)
}

// Validate checks the specification for obviously bad values.
func (s *Spec) Validate() error {
	if s.NumFlows <= 0 {
		return fmt.Errorf("workload %q: NumFlows must be positive", s.Name)
	}
	if s.PktSize < 64 {
		return fmt.Errorf("workload %q: PktSize %d below minimum frame size", s.Name, s.PktSize)
	}
	if s.SYNRatio < 0 || s.SYNRatio > 1 || s.UDPRatio < 0 || s.UDPRatio > 1 {
		return fmt.Errorf("workload %q: ratios must be in [0,1]", s.Name)
	}
	return nil
}

// Standard workloads used across the evaluation, mirroring the paper's
// "large flows" vs "small flows" setups (Figure 11): large flows = few
// concurrent flows, so per-flow state mostly hits caches; small flows =
// many concurrent flows, so state misses dominate.
var (
	LargeFlows = Spec{Name: "large-flows", NumFlows: 64, PktSize: 512, ZipfS: 1.1, SYNRatio: 0.02, UDPRatio: 0.2, PayloadB: 256, Seed: 11}
	SmallFlows = Spec{Name: "small-flows", NumFlows: 65536, PktSize: 128, ZipfS: 0.0, SYNRatio: 0.10, UDPRatio: 0.3, PayloadB: 64, Seed: 13}
	MediumMix  = Spec{Name: "medium-mix", NumFlows: 4096, PktSize: 256, ZipfS: 0.9, SYNRatio: 0.05, UDPRatio: 0.3, PayloadB: 128, Seed: 17}
)

// Standard resolves the name every front door knows a standard workload
// by (small | large | mix); "" means mix.
func Standard(name string) (Spec, error) {
	switch name {
	case "small":
		return SmallFlows, nil
	case "large":
		return LargeFlows, nil
	case "mix", "":
		return MediumMix, nil
	}
	return Spec{}, fmt.Errorf("unknown workload %q (small | large | mix)", name)
}

// flow is one generated flow's immutable identity plus its progression
// state.
type flow struct {
	srcIP, dstIP     uint32
	srcPort, dstPort uint16
	proto            uint8
	seq, ack         uint32
	started          bool
}

// Generator produces packets for a Spec.
type Generator struct {
	spec  Spec
	rng   *rand.Rand
	zipf  *rand.Zipf
	flows []flow
	now   uint64
	gap   uint64
}

// NewGenerator builds a generator; flows are materialized eagerly so packet
// generation is O(1) per packet.
func NewGenerator(spec Spec) (*Generator, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	g := &Generator{spec: spec, rng: rng}
	if spec.ZipfS > 0 {
		g.zipf = rand.NewZipf(rng, spec.ZipfS+1.0, 1.0, uint64(spec.NumFlows-1))
	}
	serverNet := spec.ServerNet
	if serverNet == 0 {
		serverNet = 0x0A000000 // 10.0.0.0
	}
	g.flows = make([]flow, spec.NumFlows)
	for i := range g.flows {
		proto := uint8(ProtoTCP)
		if rng.Float64() < spec.UDPRatio {
			proto = ProtoUDP
		}
		g.flows[i] = flow{
			srcIP:   0xC0A80000 | uint32(rng.Intn(1<<16)), // 192.168/16 clients
			dstIP:   serverNet | uint32(rng.Intn(256)),
			srcPort: uint16(1024 + rng.Intn(64000)),
			dstPort: uint16([]int{80, 443, 53, 8080}[rng.Intn(4)]),
			proto:   proto,
			seq:     rng.Uint32(),
			ack:     rng.Uint32(),
		}
	}
	if spec.RatePps > 0 {
		g.gap = uint64(1e9 / spec.RatePps)
	} else {
		g.gap = 50 // back-to-back at 20 Mpps offered
	}
	return g, nil
}

// Next generates the next packet.
func (g *Generator) Next() Packet {
	fi := 0
	if g.zipf != nil {
		fi = int(g.zipf.Uint64())
	} else {
		fi = g.rng.Intn(len(g.flows))
	}
	f := &g.flows[fi]

	payload := g.spec.PayloadB
	if payload > g.spec.PktSize-54 {
		payload = g.spec.PktSize - 54
	}
	if payload < 0 {
		payload = 0
	}
	p := Packet{
		Time:    g.now,
		Len:     uint16(g.spec.PktSize),
		EthType: EthIPv4,
		Proto:   f.proto,
		SrcIP:   f.srcIP,
		DstIP:   f.dstIP,
		TTL:     64,
		IPLen:   uint16(g.spec.PktSize - 14),
		IPHL:    5,
		SrcPort: f.srcPort,
		DstPort: f.dstPort,
		OutPort: -2,
	}
	if f.proto == ProtoTCP {
		p.TCPOff = 5
		if !f.started || g.rng.Float64() < g.spec.SYNRatio {
			p.TCPFlag = FlagSYN
			f.started = true
		} else {
			p.TCPFlag = FlagACK
		}
		p.Seq = f.seq
		p.Ack = f.ack
		f.seq += uint32(payload)
	}
	if payload > 0 {
		p.Payload = make([]byte, payload)
		for i := range p.Payload {
			// Deterministic, flow-correlated bytes: cheap but non-constant,
			// so DPI/CRC workloads do real work.
			p.Payload[i] = byte(uint32(i)*2654435761 + f.srcIP + uint32(fi))
		}
	}
	g.now += g.gap
	return p
}

// Trace generates n packets as a slice.
func (g *Generator) Trace(n int) []Packet {
	out := make([]Packet, n)
	for i := range out {
		out[i] = g.Next()
	}
	return out
}

// MustTrace builds a generator for spec and returns n packets, panicking on
// an invalid spec (in-tree specs only).
func MustTrace(spec Spec, n int) []Packet {
	g, err := NewGenerator(spec)
	if err != nil {
		panic(err)
	}
	return g.Trace(n)
}
