package interp

import (
	"fmt"
	"slices"

	"clara/internal/ir"
	"clara/internal/traffic"
)

// pktGet is a header getter API (an xPktGet instruction): the field of p
// it returns.
func pktGet(p *traffic.Packet, api int32) uint64 {
	switch ir.API(api) {
	case ir.APIPktLen:
		return uint64(p.Len)
	case ir.APIPktEthType:
		return uint64(p.EthType)
	case ir.APIPktIPProto:
		return uint64(p.Proto)
	case ir.APIPktIPSrc:
		return uint64(p.SrcIP)
	case ir.APIPktIPDst:
		return uint64(p.DstIP)
	case ir.APIPktIPTTL:
		return uint64(p.TTL)
	case ir.APIPktIPLen:
		return uint64(p.IPLen)
	case ir.APIPktIPHL:
		return uint64(p.IPHL)
	case ir.APIPktTCPSport, ir.APIPktUDPSport:
		return uint64(p.SrcPort)
	case ir.APIPktTCPDport, ir.APIPktUDPDport:
		return uint64(p.DstPort)
	case ir.APIPktTCPSeq:
		return uint64(p.Seq)
	case ir.APIPktTCPAck:
		return uint64(p.Ack)
	case ir.APIPktTCPFlags:
		return uint64(p.TCPFlag)
	case ir.APIPktTCPOff:
		return uint64(p.TCPOff)
	case ir.APIPktPayloadLen:
		return uint64(len(p.Payload))
	case ir.APIPktTime:
		return p.Time
	}
	panic(fmt.Sprintf("interp: API %d is not a packet getter", api))
}

// pktSet is a packet setter or disposition API (an xPktSet instruction)
// with argument v (ignored by pkt_csum_update and pkt_drop, which take
// none).
func pktSet(p *traffic.Packet, api int32, v uint64) {
	switch ir.API(api) {
	case ir.APIPktSetIPSrc:
		p.SrcIP = uint32(v)
	case ir.APIPktSetIPDst:
		p.DstIP = uint32(v)
	case ir.APIPktSetIPTTL:
		p.TTL = uint8(v)
	case ir.APIPktSetTCPSport, ir.APIPktSetUDPSport:
		p.SrcPort = uint16(v)
	case ir.APIPktSetTCPDport, ir.APIPktSetUDPDport:
		p.DstPort = uint16(v)
	case ir.APIPktSetTCPSeq:
		p.Seq = uint32(v)
	case ir.APIPktSetTCPAck:
		p.Ack = uint32(v)
	case ir.APIPktSetTCPFlags:
		p.TCPFlag = uint8(v)
	case ir.APIPktCsumUpdate:
		p.CsumUpdated = true
	case ir.APIPktSend:
		p.OutPort = int32(v)
	case ir.APIPktDrop:
		p.OutPort = -1
	default:
		panic(fmt.Sprintf("interp: API %d is not a packet setter", api))
	}
}

// call executes a framework API call instruction. It cannot fail:
// ir.Verify rejects unknown APIs and map/vec calls on the wrong kind of
// global, so the panic below marks a broken invariant.
//
// The packet APIs and hash32 never get here: apiOps gives them ops of
// their own (xPktGet, xPktSet, xCallPayload, xCallSetPayload, xCallHash32).
func (m *Machine) call(in *cInstr, block int) {
	switch ir.APIs[in.api].State {
	case ir.GMap:
		m.mapOp(in, block)
		return
	case ir.GVec:
		m.vecOp(in, block)
		return
	}
	p := m.pkt
	switch in.api {
	case ir.APIRand32:
		m.rng = m.rng*6364136223846793005 + 1442695040888963407
		m.vals[in.id] = (m.rng >> 32) & 0xffffffff
	case ir.APIEwmaRate:
		// EWMA with alpha = 1/16, computed in double precision exactly as
		// the host framework does (the divergence the linter warns about).
		m.ewma += (float64(uint32(m.arg(in.a0))) - m.ewma) / 16
		m.vals[in.id] = uint64(uint32(m.ewma))
	case ir.APICRC32HW:
		off := int(m.arg(in.a0))
		n := int(m.arg(in.a1))
		m.vals[in.id] = uint64(CRC32(p.Payload, off, n))
		m.emitAPI(in, clampLen(p.Payload, off, n), 0, block)
		return
	case ir.APILPMHW:
		m.vals[in.id] = uint64(m.lpmLookup(uint32(m.arg(in.a0))))
	default:
		panic(fmt.Sprintf("interp: unimplemented API %q", ir.APIs[in.api].Name))
	}
	m.emitAPI(in, 0, 0, block)
}

// clampLen returns how many payload bytes [off, off+n) actually covers.
func clampLen(payload []byte, off, n int) int {
	if off < 0 || off >= len(payload) || n <= 0 {
		return 0
	}
	if off+n > len(payload) {
		return len(payload) - off
	}
	return n
}

// Hash32 is the deterministic 64→32-bit mix used by the hash32 intrinsic
// on both platforms (the NIC has a hash engine with identical semantics).
func Hash32(k uint64) uint32 {
	k ^= k >> 33
	k *= 0xff51afd7ed558ccd
	k ^= k >> 33
	k *= 0xc4ceb9fe1a85ec53
	k ^= k >> 33
	return uint32(k)
}

var crcTable [256]uint32

func init() {
	const poly = 0xEDB88320
	for i := range crcTable {
		c := uint32(i)
		for k := 0; k < 8; k++ {
			if c&1 != 0 {
				c = poly ^ (c >> 1)
			} else {
				c >>= 1
			}
		}
		crcTable[i] = c
	}
}

// CRC32 computes the IEEE CRC-32 of payload[off:off+n], clamped to the
// payload bounds (firmware semantics: short reads return what exists).
func CRC32(payload []byte, off, n int) uint32 {
	if off < 0 || off >= len(payload) {
		return 0
	}
	end := off + n
	if end > len(payload) {
		end = len(payload)
	}
	crc := ^uint32(0)
	for _, b := range payload[off:end] {
		crc = crcTable[byte(crc)^b] ^ (crc >> 8)
	}
	return ^crc
}

func (m *Machine) lpmLookup(addr uint32) uint32 {
	best := -1
	var port uint32
	for _, r := range m.cfg.LPMTable {
		if r.Len > 32 || r.Len < 0 {
			continue
		}
		var mask uint32
		if r.Len > 0 {
			mask = ^uint32(0) << (32 - r.Len)
		}
		if addr&mask == r.Prefix&mask && r.Len > best {
			best = r.Len
			port = r.Port
		}
	}
	if best < 0 {
		return 0xffffffff
	}
	return port
}

// mapOp executes a stateful map API call on the NIC library's fixed
// buckets (§3.3): a full bucket drops the insert and a remove tombstones
// its slot. ir.Verify has held the call to a map global.
func (m *Machine) mapOp(in *cInstr, block int) {
	nm := m.gl[in.gidx].nmap
	if in.api == ir.APIMapSize {
		// map_size has no key: like vec_len it reads no bucket.
		m.vals[in.id] = uint64(nm.size)
		m.emitAPI(in, 0, 0, block)
		return
	}
	key := m.arg(in.a0)
	probes := 0
	switch in.api {
	case ir.APIMapFind, ir.APIMapContains:
		slot, n := nm.lookup(key)
		probes = n
		var v uint64
		if slot >= 0 {
			v = 1
			if in.api == ir.APIMapFind {
				v = nm.slots[slot].val
			}
		}
		m.vals[in.id] = v
	case ir.APIMapInsert:
		probes = nm.insert(key, m.arg(in.a1))
	case ir.APIMapRemove:
		slot, n := nm.lookup(key)
		probes = n
		if slot >= 0 {
			// Deletions only mark the entry invalid (§3.3): the slot is
			// reusable by later inserts but never compacted.
			nm.slots[slot].state = 2
			nm.size--
		}
	}
	m.emitAPI(in, probes, uint64(nm.bucket(key)), block)
}

func (nm *nicMapState) bucket(key uint64) int {
	return int(Hash32(key)) % nm.buckets * BucketSlots
}

// lookup returns the slot index holding key (or -1) and the probe count.
func (nm *nicMapState) lookup(key uint64) (int, int) {
	base := nm.bucket(key)
	for i := 0; i < BucketSlots; i++ {
		s := &nm.slots[base+i]
		st := nm.st(s)
		if st == 0 {
			return -1, i + 1 // free slot terminates the probe chain
		}
		if st == 1 && s.key == key {
			return base + i, i + 1
		}
	}
	return -1, BucketSlots
}

// insert stores key→val, returning probes. A full bucket drops the insert
// (no dynamic allocation on the NIC).
func (nm *nicMapState) insert(key, val uint64) int {
	base := nm.bucket(key)
	free := -1
	for i := 0; i < BucketSlots; i++ {
		s := &nm.slots[base+i]
		st := nm.st(s)
		if st == 1 && s.key == key {
			s.val = val
			return i + 1
		}
		if st != 1 && free < 0 {
			free = base + i
		}
		if st == 0 {
			break
		}
	}
	if free >= 0 {
		if nm.st(&nm.slots[free]) != 1 {
			nm.size++
		}
		nm.slots[free] = mslot{key: key, val: val, state: 1, gen: nm.gen}
		return free - base + 1
	}
	nm.failedInserts++
	return BucketSlots
}

// vecOp executes a vector API call on the NIC library's fixed-capacity
// vector (§3.3): a push takes the first free or tombstoned slot, probing
// from the front, and a delete tombstones one slot where a Click Vector
// would shift its tail. ir.Verify has held the call to a vector global.
func (m *Machine) vecOp(in *cInstr, block int) {
	v := m.gl[in.gidx].vec
	// vec_get, vec_set and vec_delete touch one slot: the one at their index.
	probes := 1
	addr := m.arg(in.a0)
	inRange := addr < uint64(len(v.vals))
	switch in.api {
	case ir.APIVecPush:
		i := slices.Index(v.valid, false)
		if i < 0 {
			v.dropped++
			m.vals[in.id] = 0
			probes, addr = len(v.vals), 0
			break
		}
		v.vals[i] = m.arg(in.a0)
		v.valid[i] = true
		v.live++
		m.vals[in.id] = 1
		probes, addr = i+1, uint64(i)
	case ir.APIVecGet:
		m.vals[in.id] = 0
		if inRange && v.valid[addr] {
			m.vals[in.id] = v.vals[addr]
		}
	case ir.APIVecSet:
		if inRange {
			if !v.valid[addr] {
				v.live++
			}
			v.vals[addr] = m.arg(in.a1)
			v.valid[addr] = true
		}
	case ir.APIVecDelete:
		if inRange && v.valid[addr] {
			v.valid[addr] = false
			v.live--
		}
	case ir.APIVecLen:
		m.vals[in.id] = uint64(v.live)
		probes, addr = 0, 0
	}
	m.emitAPI(in, probes, addr, block)
}

// --- State inspection and seeding (element setup + tests) ---

// Scalar reads a scalar global.
func (m *Machine) Scalar(name string) (uint64, error) {
	gi, ok := m.gidx[name]
	if !ok || m.gl[gi].g.Kind != ir.GScalar {
		return 0, fmt.Errorf("interp: no scalar global %q", name)
	}
	return m.gl[gi].scalar, nil
}

// SetArray fills a global array prefix with vals.
func (m *Machine) SetArray(name string, vals []uint64) error {
	gi, ok := m.gidx[name]
	if !ok || m.gl[gi].g.Kind != ir.GArray {
		return fmt.Errorf("interp: no array global %q", name)
	}
	a := m.gl[gi].array
	if len(vals) > len(a) {
		return fmt.Errorf("interp: array %q overflow (%d > %d)", name, len(vals), len(a))
	}
	copy(a, vals)
	return nil
}

// ArrayAt reads one element of a global array.
func (m *Machine) ArrayAt(name string, i int) (uint64, error) {
	gi, ok := m.gidx[name]
	if !ok || m.gl[gi].g.Kind != ir.GArray {
		return 0, fmt.Errorf("interp: no array global %q", name)
	}
	a := m.gl[gi].array
	if i < 0 || i >= len(a) {
		return 0, fmt.Errorf("interp: array %q index %d out of range", name, i)
	}
	return a[i], nil
}

// MapSeed inserts key→val into a map global; like map_insert, a full
// bucket drops it.
func (m *Machine) MapSeed(name string, key, val uint64) error {
	gi, ok := m.gidx[name]
	if !ok || m.gl[gi].g.Kind != ir.GMap {
		return fmt.Errorf("interp: no map global %q", name)
	}
	m.gl[gi].nmap.insert(key, val)
	return nil
}

// MapGet reads a map entry, reporting presence.
func (m *Machine) MapGet(name string, key uint64) (uint64, bool, error) {
	gi, ok := m.gidx[name]
	if !ok || m.gl[gi].g.Kind != ir.GMap {
		return 0, false, fmt.Errorf("interp: no map global %q", name)
	}
	nm := m.gl[gi].nmap
	slot, _ := nm.lookup(key)
	if slot < 0 {
		return 0, false, nil
	}
	return nm.slots[slot].val, true, nil
}

// MapLen returns the live entry count of a map global.
func (m *Machine) MapLen(name string) (int, error) {
	gi, ok := m.gidx[name]
	if !ok || m.gl[gi].g.Kind != ir.GMap {
		return 0, fmt.Errorf("interp: no map global %q", name)
	}
	return m.gl[gi].nmap.size, nil
}

// FailedInserts returns the number of inserts a map global dropped.
func (m *Machine) FailedInserts(name string) (int, error) {
	gi, ok := m.gidx[name]
	if !ok || m.gl[gi].g.Kind != ir.GMap {
		return 0, fmt.Errorf("interp: no map global %q", name)
	}
	return m.gl[gi].nmap.failedInserts, nil
}

// VecLive returns the live element count of a vector global.
func (m *Machine) VecLive(name string) (int, error) {
	gi, ok := m.gidx[name]
	if !ok || m.gl[gi].g.Kind != ir.GVec {
		return 0, fmt.Errorf("interp: no vector global %q", name)
	}
	return m.gl[gi].vec.live, nil
}

// VecAt reads element i of a vector global (ok=false for empty/invalid
// slots).
func (m *Machine) VecAt(name string, i int) (uint64, bool, error) {
	gi, ok := m.gidx[name]
	if !ok || m.gl[gi].g.Kind != ir.GVec {
		return 0, false, fmt.Errorf("interp: no vector global %q", name)
	}
	v := m.gl[gi].vec
	if i < 0 || i >= len(v.vals) || !v.valid[i] {
		return 0, false, nil
	}
	return v.vals[i], true, nil
}

// VecDropped returns the number of pushes a full vector global dropped.
func (m *Machine) VecDropped(name string) (int, error) {
	gi, ok := m.gidx[name]
	if !ok || m.gl[gi].g.Kind != ir.GVec {
		return 0, fmt.Errorf("interp: no vector global %q", name)
	}
	return m.gl[gi].vec.dropped, nil
}
