package nicsim

import (
	"fmt"
	"slices"

	"clara/internal/interp"
	"clara/internal/ir"
	"clara/internal/isa"
	"clara/internal/niccc"
	"clara/internal/traffic"
)

// EventKind discriminates trace events.
type EventKind uint8

// Event kinds.
const (
	EvCompute EventKind = iota // core-local cycles
	EvMem                      // shared-memory access
	EvEngine                   // hardware engine operation
)

// Event is one costed step of a packet's processing.
type Event struct {
	Kind   EventKind
	Server uint8   // contention server (srvNone for core-local)
	Cycles int32   // compute cycles, or access/engine latency
	Occupy float32 // server occupancy
}

// TraceSet is the costed execution trace of one NF over one workload,
// replayable under any core count.
type TraceSet struct {
	Name   string
	Events []Event
	Off    []int32 // packet i spans Events[Off[i]:Off[i+1]]

	// OfferedMpps caps the arrival rate (0 = saturate the ingress).
	OfferedMpps float64

	// Aggregate statistics from generation.
	Sent, Dropped  int
	FlowCacheHits  int
	MemAccesses    [isa.NumRegions]int
	EMEMHits       int
	EMEMMisses     int
	ComputeCycles  int64
	CoalesceMerged int // scalar accesses absorbed into fetched packs
}

// Packets returns the number of traced packets.
func (ts *TraceSet) Packets() int { return len(ts.Off) - 1 }

// globalInfo is the precomputed per-global metadata used in the hot path.
type globalInfo struct {
	region   isa.Region
	server   uint8
	elemSize int
	pack     int // -1 if not packed
	id       uint64
}

// tracer accumulates events for one packet at a time.
type tracer struct {
	params Params
	b      *Built
	ts     *TraceSet
	info   []globalInfo // by global index, as the hooks report it
	pkt    *globalInfo  // pseudo-global for packet buffer accesses

	// EMEM cache (direct-mapped, shared; evaluated in arrival order).
	cacheTags []uint64

	// Flow cache.
	flowTags []uint64

	// Per-packet coalescing residency.
	fetched  []bool
	dirty    []bool
	packInfo []*globalInfo // representative member per pack
}

func newTracer(params Params, b *Built, ts *TraceSet) *tracer {
	globals := b.NF.Mod.Globals
	tr := &tracer{params: params, b: b, ts: ts, info: make([]globalInfo, len(globals))}
	for i, g := range globals {
		tr.info[i] = globalInfo{
			region:   b.place[i],
			server:   serverOf(b.place[i]),
			elemSize: g.Elem.Size(),
			pack:     b.packOf[i],
			id:       uint64(i+1) << 44,
		}
		if g.Kind == ir.GMap {
			tr.info[i].elemSize = g.Key.Size() + g.Elem.Size() + 1
		}
	}
	tr.pkt = &globalInfo{region: isa.CTM, server: srvCTM, elemSize: 1, pack: -1, id: 0}
	if params.EMEMCacheLines > 0 {
		tr.cacheTags = make([]uint64, params.EMEMCacheLines)
	}
	if params.FlowCacheEntries > 0 {
		tr.flowTags = make([]uint64, params.FlowCacheEntries)
	}
	tr.fetched = make([]bool, len(b.packSz))
	tr.dirty = make([]bool, len(b.packSz))
	tr.packInfo = make([]*globalInfo, len(b.packSz))
	for pi, head := range b.packHead {
		if head >= 0 {
			tr.packInfo[pi] = &tr.info[head]
		} else {
			tr.packInfo[pi] = tr.pkt
		}
	}
	return tr
}

func (tr *tracer) emit(e Event) { tr.ts.Events = append(tr.ts.Events, e) }

func (tr *tracer) compute(cycles int) {
	if cycles <= 0 {
		return
	}
	tr.ts.ComputeCycles += int64(cycles)
	// Merge with a preceding compute event of the same packet if possible.
	n := len(tr.ts.Events)
	lastOff := int(tr.ts.Off[len(tr.ts.Off)-1])
	if n > lastOff && tr.ts.Events[n-1].Kind == EvCompute {
		tr.ts.Events[n-1].Cycles += int32(cycles)
		return
	}
	tr.emit(Event{Kind: EvCompute, Server: srvNone, Cycles: int32(cycles)})
}

// mem records one stateful access of size bytes at element addr of g.
func (tr *tracer) mem(g *globalInfo, addr uint64, size int, write bool) {
	lat := tr.params.Regions[g.region].Latency
	occ := tr.params.Regions[g.region].Issue
	srv := g.server
	if g.region == isa.EMEM && tr.cacheTags != nil {
		line := g.id | (addr*uint64(g.elemSize))/64
		slot := (line * 0x9E3779B97F4A7C15 >> 33) % uint64(len(tr.cacheTags))
		if tr.cacheTags[slot] == line {
			tr.ts.EMEMHits++
			lat = tr.params.EMEMCacheHitLat
			occ = tr.params.EMEMCacheIssue
		} else {
			tr.ts.EMEMMisses++
			tr.cacheTags[slot] = line
		}
	}
	// Wide accesses occupy the server proportionally (32B per beat).
	if size > 32 {
		occ *= float64(size) / 32
	}
	tr.ts.MemAccesses[g.region]++
	tr.emit(Event{Kind: EvMem, Server: srv, Cycles: int32(lat), Occupy: float32(occ)})
}

// state handles an OnState access, applying the coalescing plan for packed
// scalars: the first touch of a pack fetches the whole pack in one access;
// later touches are register hits; dirty packs write back once at packet
// end. It is the machine's OnState hook.
func (tr *tracer) state(global int, write bool, addr uint64, _ int) {
	g := &tr.info[global]
	if g.pack >= 0 {
		if write {
			tr.dirty[g.pack] = true
		}
		if tr.fetched[g.pack] {
			tr.ts.CoalesceMerged++
			return
		}
		tr.fetched[g.pack] = true
		tr.mem(g, 0, tr.b.packSz[g.pack], false)
		return
	}
	tr.mem(g, addr, g.elemSize, write)
}

func (tr *tracer) engine(srv uint8, lat int, ep EngineParams) {
	tr.emit(Event{Kind: EvEngine, Server: srv, Cycles: int32(lat), Occupy: float32(ep.Issue)})
}

// apiProfiles is each framework API's library routine of the same name,
// by code. The engine calls — checksum, CRC, LPM, hash — are costed by the
// routine their engine setting selects instead; every other API has one,
// which niccc's TestLibraryProfilesComplete holds for the whole catalog.
var apiProfiles = func() (ps [len(ir.APIs)]niccc.LibProfile) {
	for api, a := range ir.APIs {
		ps[api] = niccc.Library[a.Name]
	}
	return ps
}()

// api expands a framework API call into cost events; it is the machine's
// OnAPI hook. probes carries the dynamic work reported by the interpreter
// (map slot probes, bytes hashed).
func (tr *tracer) api(api ir.API, global int, probes int, addr uint64, _ int) {
	accel := tr.b.NF.Accel
	switch api {
	case ir.APIPktCsumUpdate:
		if accel.CsumEngine {
			p := niccc.Library["csum_hw"]
			tr.compute(p.Cycles)
			tr.engine(srvCsum, tr.params.Csum.Latency, tr.params.Csum)
		} else {
			// Software loop: cost scales with the bytes summed (probes).
			tr.compute(240 + 4*probes)
			for i := 0; i < probes/32; i++ {
				tr.mem(tr.pkt, uint64(i), 32, false)
			}
		}
		return
	case ir.APICRC32HW:
		if accel.CRCEngine {
			p := niccc.Library["crc32_hw"]
			tr.compute(p.Cycles)
			tr.engine(srvCrc, tr.params.Crc.Latency+probes/8, tr.params.Crc)
		} else {
			tr.compute(30 + 6*probes)
			for i := 0; i < probes/32; i++ {
				tr.mem(tr.pkt, uint64(i), 32, false)
			}
		}
		return
	case ir.APILPMHW:
		if accel.LPMEngine {
			p := niccc.Library["lpm_hw"]
			tr.compute(p.Cycles)
			tr.engine(srvLpm, tr.params.Lpm.Latency, tr.params.Lpm)
		} else {
			p := niccc.SoftwareFallbacks["lpm_sw"]
			tr.compute(p.Cycles)
		}
		return
	case ir.APIHash32:
		p := niccc.Library["hash32"]
		tr.compute(p.Cycles)
		tr.engine(srvHash, tr.params.Hash.Latency, tr.params.Hash)
		return
	}

	p := &apiProfiles[api]
	tr.compute(p.Cycles)
	for i := 0; i < p.PayloadReads; i++ {
		tr.mem(tr.pkt, addr+uint64(i), 32, false)
	}
	if p.PerProbeBytes > 0 && global >= 0 {
		g := &tr.info[global]
		for i := 0; i < probes; i++ {
			tr.mem(g, addr+uint64(i), p.PerProbeBytes, false)
		}
	}
}

// GenTraces executes n packets of workload wl through the built NF and
// returns the replayable trace set.
func GenTraces(b *Built, wl traffic.Spec, n int, params Params) (*TraceSet, error) {
	return GenTracesInto(nil, b, wl, n, params)
}

// GenTracesInto is GenTraces recording the events into buf's storage
// (from buf[:0]), so a caller done with an earlier trace set can hand its
// Events back instead of growing a fresh buffer. The result is the same.
func GenTracesInto(buf []Event, b *Built, wl traffic.Spec, n int, params Params) (*TraceSet, error) {
	gen, err := traffic.Replay(wl, n)
	if err != nil {
		return nil, err
	}
	offered := 0.0
	if wl.RatePps > 0 {
		offered = wl.RatePps / 1e6
	}
	return traceInto(buf, b, gen, n, offered, params)
}

// sizingPackets is how many packets are traced before the event buffer is
// sized for the rest of the trace.
const sizingPackets = 32

func traceInto(buf []Event, b *Built, gen traffic.Source, n int, offeredMpps float64, params Params) (*TraceSet, error) {
	ts := &TraceSet{Name: b.NF.Name, Events: buf[:0], Off: make([]int32, 1, n+1), OfferedMpps: offeredMpps}
	tr := newTracer(params, b, ts)

	prog := b.Prog
	b.Machine.SetHooks(interp.Hooks{
		OnBlock: func(bi int) {
			blk := &prog.Blocks[bi]
			if blk.ComputeCycles > 0 {
				tr.compute(blk.ComputeCycles)
			}
		},
		OnState: tr.state,
		OnAPI:   tr.api,
	})

	var p traffic.Packet // one for the whole trace: RunPacket takes its address
	for i := 0; i < n; i++ {
		if i == sizingPackets {
			// Reserve the rest of the trace at the rate so far, plus an
			// eighth. Growing by append's ~1.25× steps instead allocates
			// about five times a trace's final size on the way there.
			ts.Events = slices.Grow(ts.Events, len(ts.Events)*(n-i)/i*9/8)
		}
		p = gen.Next()

		// Ingress flow cache: hits bypass the cores entirely.
		if b.NF.Accel.FlowCache && tr.flowTags != nil {
			key := p.FlowKey() | 1<<63
			slot := (key * 0x9E3779B97F4A7C15 >> 33) % uint64(len(tr.flowTags))
			if tr.flowTags[slot] == key {
				ts.FlowCacheHits++
				ts.Sent++
				// Flow-cache hits are handled in the ingress pipeline and
				// never occupy a core: pure latency, no pipeline occupancy.
				tr.emit(Event{Kind: EvEngine, Server: srvNone, Cycles: int32(params.FlowCacheHitCycles)})
				ts.Off = append(ts.Off, int32(len(ts.Events)))
				continue
			}
			if err := runOne(b, tr, &p); err != nil {
				return nil, err
			}
			if !p.Dropped() {
				tr.flowTags[slot] = key
			}
		} else {
			if err := runOne(b, tr, &p); err != nil {
				return nil, err
			}
		}
		if p.Dropped() {
			ts.Dropped++
		} else {
			ts.Sent++
		}
		ts.Off = append(ts.Off, int32(len(ts.Events)))
	}
	return ts, nil
}

func runOne(b *Built, tr *tracer, p *traffic.Packet) error {
	if err := b.Machine.RunPacket(p); err != nil {
		return fmt.Errorf("nicsim: %s: %w", b.NF.Name, err)
	}
	// Write back dirty packs and reset per-packet coalescing state.
	for pi := range tr.fetched {
		if tr.dirty[pi] {
			tr.mem(tr.packInfo[pi], 0, tr.b.packSz[pi], true)
		}
		tr.fetched[pi] = false
		tr.dirty[pi] = false
	}
	return nil
}
