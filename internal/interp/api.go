package interp

import (
	"fmt"

	"clara/internal/ir"
)

// call executes a framework API call instruction. It cannot fail:
// compileInstr rejects unknown APIs and checkInstr map/vec calls on the
// wrong kind of global, so the panics below mark broken invariants.
func (m *Machine) call(in *cInstr, block int) {
	p := m.pkt
	switch in.api {
	case apiPktLen:
		m.vals[in.id] = uint64(p.Len)
	case apiEthType:
		m.vals[in.id] = uint64(p.EthType)
	case apiIPProto:
		m.vals[in.id] = uint64(p.Proto)
	case apiIPSrc:
		m.vals[in.id] = uint64(p.SrcIP)
	case apiIPDst:
		m.vals[in.id] = uint64(p.DstIP)
	case apiIPTTL:
		m.vals[in.id] = uint64(p.TTL)
	case apiIPLen:
		m.vals[in.id] = uint64(p.IPLen)
	case apiIPHL:
		m.vals[in.id] = uint64(p.IPHL)
	case apiTCPSport:
		m.vals[in.id] = uint64(p.SrcPort)
	case apiTCPDport:
		m.vals[in.id] = uint64(p.DstPort)
	case apiTCPSeq:
		m.vals[in.id] = uint64(p.Seq)
	case apiTCPAck:
		m.vals[in.id] = uint64(p.Ack)
	case apiTCPFlags:
		m.vals[in.id] = uint64(p.TCPFlag)
	case apiTCPOff:
		m.vals[in.id] = uint64(p.TCPOff)
	case apiUDPSport:
		m.vals[in.id] = uint64(p.SrcPort)
	case apiUDPDport:
		m.vals[in.id] = uint64(p.DstPort)
	case apiPayload:
		i := m.arg(in.a0)
		if i < uint64(len(p.Payload)) {
			m.vals[in.id] = uint64(p.Payload[i])
		} else {
			m.vals[in.id] = 0
		}
	case apiPayloadLen:
		m.vals[in.id] = uint64(len(p.Payload))
	case apiTime:
		m.vals[in.id] = p.Time

	case apiSetIPSrc:
		p.SrcIP = uint32(m.arg(in.a0))
	case apiSetIPDst:
		p.DstIP = uint32(m.arg(in.a0))
	case apiSetIPTTL:
		p.TTL = uint8(m.arg(in.a0))
	case apiSetTCPSport, apiSetUDPSport:
		p.SrcPort = uint16(m.arg(in.a0))
	case apiSetTCPDport, apiSetUDPDport:
		p.DstPort = uint16(m.arg(in.a0))
	case apiSetTCPSeq:
		p.Seq = uint32(m.arg(in.a0))
	case apiSetTCPAck:
		p.Ack = uint32(m.arg(in.a0))
	case apiSetTCPFlags:
		p.TCPFlag = uint8(m.arg(in.a0))
	case apiSetPayload:
		i := m.arg(in.a0)
		if i < uint64(len(p.Payload)) {
			p.Payload[i] = byte(m.arg(in.a1))
		}

	case apiCsumUpdate:
		p.CsumUpdated = true
		m.emitAPI(in, int(p.IPLen), 0, block)
		return
	case apiSend:
		p.OutPort = int32(m.arg(in.a0))
	case apiDrop:
		p.OutPort = -1

	case apiHash32:
		m.vals[in.id] = uint64(Hash32(m.arg(in.a0)))
	case apiRand32:
		m.rng = m.rng*6364136223846793005 + 1442695040888963407
		m.vals[in.id] = (m.rng >> 32) & 0xffffffff
	case apiEwmaRate:
		// EWMA with alpha = 1/16, computed in double precision exactly as
		// the host framework does (the divergence the linter warns about).
		m.ewma += (float64(uint32(m.arg(in.a0))) - m.ewma) / 16
		m.vals[in.id] = uint64(uint32(m.ewma))
	case apiCRC32HW:
		off := int(m.arg(in.a0))
		n := int(m.arg(in.a1))
		m.vals[in.id] = uint64(CRC32(p.Payload, off, n))
		m.emitAPI(in, clampLen(p.Payload, off, n), 0, block)
		return
	case apiLPMHW:
		m.vals[in.id] = uint64(m.lpmLookup(uint32(m.arg(in.a0))))

	case apiMapFind, apiMapContains, apiMapInsert, apiMapRemove, apiMapSize:
		m.mapOp(in, block)
		return

	case apiVecPush, apiVecGet, apiVecSet, apiVecDelete, apiVecLen:
		m.vecOp(in, block)
		return

	default:
		panic(fmt.Sprintf("interp: unimplemented API %q", m.strs[in.sidx].callee))
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

// mapOp executes a stateful map API call under the configured semantics.
func (m *Machine) mapOp(in *cInstr, block int) {
	g := m.gl[in.gidx]
	if g.g.Kind != ir.GMap {
		panic(fmt.Sprintf("interp: %s on non-map %q", m.strs[in.sidx].callee, m.strs[in.sidx].global))
	}
	probes := 0
	var addr uint64
	switch m.cfg.Mode {
	case HostMap:
		if in.nargs > 0 {
			addr = uint64(Hash32(m.arg(in.a0)))
		}
		switch in.api {
		case apiMapFind:
			m.vals[in.id] = g.hmap[m.arg(in.a0)]
			probes = 1
		case apiMapContains:
			_, ok := g.hmap[m.arg(in.a0)]
			if ok {
				m.vals[in.id] = 1
			} else {
				m.vals[in.id] = 0
			}
			probes = 1
		case apiMapInsert:
			// Click HashMaps grow elastically; capacity is a hint only.
			g.hmap[m.arg(in.a0)] = m.arg(in.a1)
			probes = 1
		case apiMapRemove:
			delete(g.hmap, m.arg(in.a0))
			probes = 1
		case apiMapSize:
			m.vals[in.id] = uint64(len(g.hmap))
		}
	case NICMap:
		nm := g.nmap
		key := m.arg(in.a0)
		addr = uint64(nm.bucket(key))
		switch in.api {
		case apiMapFind, apiMapContains:
			slot, n := nm.lookup(key)
			probes = n
			if in.api == apiMapFind {
				if slot >= 0 {
					m.vals[in.id] = nm.slots[slot].val
				} else {
					m.vals[in.id] = 0
				}
			} else {
				if slot >= 0 {
					m.vals[in.id] = 1
				} else {
					m.vals[in.id] = 0
				}
			}
		case apiMapInsert:
			probes = nm.insert(key, m.arg(in.a1))
		case apiMapRemove:
			slot, n := nm.lookup(key)
			probes = n
			if slot >= 0 {
				// Deletions only mark the entry invalid (§3.3): the slot is
				// reusable by later inserts but never compacted.
				nm.slots[slot].state = 2
				nm.size--
			}
		case apiMapSize:
			m.vals[in.id] = uint64(nm.size)
		}
	}
	m.emitAPI(in, probes, addr, block)
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

// vecOp executes a vector API call under the configured semantics. Probe
// counts reflect the §3.3 divergence: a host delete shifts the tail (O(n)
// slot touches) while the NIC delete tombstones one slot.
func (m *Machine) vecOp(in *cInstr, block int) {
	g := m.gl[in.gidx]
	if g.g.Kind != ir.GVec {
		panic(fmt.Sprintf("interp: %s on non-vector %q", m.strs[in.sidx].callee, m.strs[in.sidx].global))
	}
	v := g.vec
	probes := 0
	var addr uint64
	switch in.api {
	case apiVecPush:
		val := m.arg(in.a0)
		if v.nic {
			// First free (or tombstoned) slot; full vectors drop the push.
			placed := false
			for i := 0; i < v.cap; i++ {
				probes++
				if !v.valid[i] {
					v.vals[i] = val
					v.valid[i] = true
					v.live++
					addr = uint64(i)
					placed = true
					break
				}
			}
			if placed {
				m.vals[in.id] = 1
			} else {
				v.dropped++
				m.vals[in.id] = 0
			}
		} else {
			v.vals = append(v.vals, val)
			v.live++
			probes = 1
			addr = uint64(len(v.vals) - 1)
			m.vals[in.id] = 1
		}
	case apiVecGet:
		i := m.arg(in.a0)
		probes = 1
		addr = i
		m.vals[in.id] = 0
		if v.nic {
			if i < uint64(v.cap) && v.valid[i] {
				m.vals[in.id] = v.vals[i]
			}
		} else if i < uint64(len(v.vals)) {
			m.vals[in.id] = v.vals[i]
		}
	case apiVecSet:
		i := m.arg(in.a0)
		val := m.arg(in.a1)
		probes = 1
		addr = i
		if v.nic {
			if i < uint64(v.cap) {
				if !v.valid[i] {
					v.live++
				}
				v.vals[i] = val
				v.valid[i] = true
			}
		} else if i < uint64(len(v.vals)) {
			v.vals[i] = val
		}
	case apiVecDelete:
		i := m.arg(in.a0)
		addr = i
		if v.nic {
			// NIC library: mark invalid, one slot touched.
			probes = 1
			if i < uint64(v.cap) && v.valid[i] {
				v.valid[i] = false
				v.live--
			}
		} else {
			// Click Vector: shift the tail down.
			if i < uint64(len(v.vals)) {
				probes = len(v.vals) - int(i)
				copy(v.vals[i:], v.vals[i+1:])
				v.vals = v.vals[:len(v.vals)-1]
				v.live--
			} else {
				probes = 1
			}
		}
	case apiVecLen:
		m.vals[in.id] = uint64(v.live)
	}
	m.emitAPI(in, probes, addr, block)
}

// --- State inspection and seeding (element setup + tests) ---

// SetScalar sets a scalar global.
func (m *Machine) SetScalar(name string, v uint64) error {
	gi, ok := m.gidx[name]
	if !ok || m.gl[gi].g.Kind != ir.GScalar {
		return fmt.Errorf("interp: no scalar global %q", name)
	}
	m.gl[gi].scalar = v
	return nil
}

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

// MapSeed inserts key→val into a map global under the active semantics.
func (m *Machine) MapSeed(name string, key, val uint64) error {
	gi, ok := m.gidx[name]
	if !ok || m.gl[gi].g.Kind != ir.GMap {
		return fmt.Errorf("interp: no map global %q", name)
	}
	g := m.gl[gi]
	if m.cfg.Mode == HostMap {
		g.hmap[key] = val
	} else {
		g.nmap.insert(key, val)
	}
	return nil
}

// MapGet reads a map entry, reporting presence.
func (m *Machine) MapGet(name string, key uint64) (uint64, bool, error) {
	gi, ok := m.gidx[name]
	if !ok || m.gl[gi].g.Kind != ir.GMap {
		return 0, false, fmt.Errorf("interp: no map global %q", name)
	}
	g := m.gl[gi]
	if m.cfg.Mode == HostMap {
		v, ok := g.hmap[key]
		return v, ok, nil
	}
	slot, _ := g.nmap.lookup(key)
	if slot < 0 {
		return 0, false, nil
	}
	return g.nmap.slots[slot].val, true, nil
}

// MapLen returns the live entry count of a map global.
func (m *Machine) MapLen(name string) (int, error) {
	gi, ok := m.gidx[name]
	if !ok || m.gl[gi].g.Kind != ir.GMap {
		return 0, fmt.Errorf("interp: no map global %q", name)
	}
	g := m.gl[gi]
	if m.cfg.Mode == HostMap {
		return len(g.hmap), nil
	}
	return g.nmap.size, nil
}

// FailedInserts returns the number of dropped inserts on a NIC-mode map.
func (m *Machine) FailedInserts(name string) (int, error) {
	gi, ok := m.gidx[name]
	if !ok || m.gl[gi].g.Kind != ir.GMap || m.gl[gi].nmap == nil {
		return 0, fmt.Errorf("interp: no NIC-mode map %q", name)
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
	if v.nic {
		if i < 0 || i >= v.cap || !v.valid[i] {
			return 0, false, nil
		}
		return v.vals[i], true, nil
	}
	if i < 0 || i >= len(v.vals) {
		return 0, false, nil
	}
	return v.vals[i], true, nil
}

// VecDropped returns the number of pushes dropped by a full NIC vector.
func (m *Machine) VecDropped(name string) (int, error) {
	gi, ok := m.gidx[name]
	if !ok || m.gl[gi].g.Kind != ir.GVec || !m.gl[gi].vec.nic {
		return 0, fmt.Errorf("interp: no NIC-mode vector %q", name)
	}
	return m.gl[gi].vec.dropped, nil
}
