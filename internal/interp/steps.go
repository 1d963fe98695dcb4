package interp

import (
	"clara/internal/ir"
	"clara/internal/traffic"
)

// vstep is one instruction of the step engine, pre-resolved to flat
// operand indices into the machine's combined register array. A chain is
// a []vstep ending in its terminator, walked by the one dense switch in
// runSteps, so the per-instruction cost is a predicted jump plus the op
// itself.
type vstep struct {
	mask uint64
	aux  uint64 // array index mask (AP) or length (A), or baked const operand (C variants)
	sm   uint64 // store-width mask (S variants)
	// call is the instruction an xCall step hands to Machine.call: the
	// program's own flat cInstr, in its vals-space encoding.
	call *cInstr
	a0   int32
	a1   int32
	id   int32 // result cell; dest slot for lstore
	// gi is the global index (global accesses), the store slot (S
	// variants) or the false target chain (conditional terminators).
	gi int32
	// k is the block index for xCall, the API for xPktGet and xPktSet, or
	// the (true) target chain of a terminator.
	k    int32
	op   xop
	pred ir.Pred
}

// Step-only pseudo-ops, never present in cInstr form. peepholeSteps
// produces all three families: C variants bake a constant right operand
// into the step (const-pool cells are immutable, preloaded at machine
// construction), S variants fold a following local store of the step's
// own result into the same step, CS variants do both. Values start past
// the real xop enum so one switch hosts both sets.
const (
	vAddC xop = 64 + iota
	vSubC
	vMulC
	vAndC
	vOrC
	vXorC
	vShlC
	vLShrC
	vICmpC
	vAddS
	vSubS
	vMulS
	vAndS
	vOrS
	vXorS
	vShlS
	vLShrS
	vMaskS
	vAddCS
	vSubCS
	vMulCS
	vAndCS
	vOrCS
	vXorCS
	vShlCS
	vLShrCS
)

// constOp maps an op to its baked-constant variant (0 = none).
func constOp(op xop) xop {
	switch op {
	case xAdd:
		return vAddC
	case xSub:
		return vSubC
	case xMul:
		return vMulC
	case xAnd:
		return vAndC
	case xOr:
		return vOrC
	case xXor:
		return vXorC
	case xShl:
		return vShlC
	case xLShr:
		return vLShrC
	case xICmp:
		return vICmpC
	}
	return 0
}

// storeOp maps an op to its store-fused variant (0 = none).
func storeOp(op xop) xop {
	switch op {
	case xAdd:
		return vAddS
	case xSub:
		return vSubS
	case xMul:
		return vMulS
	case xAnd:
		return vAndS
	case xOr:
		return vOrS
	case xXor:
		return vXorS
	case xShl:
		return vShlS
	case xLShr:
		return vLShrS
	case xMask:
		return vMaskS
	case vAddC:
		return vAddCS
	case vSubC:
		return vSubCS
	case vMulC:
		return vMulCS
	case vAndC:
		return vAndCS
	case vOrC:
		return vOrCS
	case vXorC:
		return vXorCS
	case vShlC:
		return vShlCS
	case vLShrC:
		return vLShrCS
	}
	return 0
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// lowered is a program's step-engine form: its chains, chain 0 rooted at
// the entry block, and the table each chain's entry count folds through.
// Shared, immutable, and machine-independent — steps reach mutable state
// only through the *Machine they are run on.
type lowered struct {
	chains []sChain
	tab    []int32
}

// sChain is a superblock in step form: a run of basic blocks joined by
// unconditional branches, their bodies laid end to end as one []vstep
// and closed by the last block's terminator, its targets resolved to
// chain indices.
type sChain struct {
	steps []vstep
	// size is the chain's source IR instruction count — fuel and Steps
	// charge by it, so elision and peephole folding never change the cost
	// model.
	size int32
	// tab[lo:mid] are the chain's blocks, head first; tab[mid:hi] the
	// State counter index (gidx*NBlocks+block) of every global access in
	// them. Machine.Counters adds the chain's entry count to each.
	lo, mid, hi int32
}

// runSteps executes one packet through the step engine. A chain whose
// blocks all fit in the fuel left is charged once, has its entry counted
// and runs to its terminator: no call can fail and no block gate inside it
// could have fired, so that is what the reference loop observes block by
// block. A chain that does not fit is handed, from its head, to the
// reference loop, which counts, charges and runs block by block until the
// block that runs out. Fuel and Steps live in locals while the loop runs —
// no hooks exist on this path, so nothing can observe the machine
// mid-packet — and Steps is flushed on every exit.
//
// Every step writes its result cell (write-through), so later steps and
// other blocks observe exactly the state the reference loop would leave.
func (m *Machine) runSteps(l *lowered, p *traffic.Packet) error {
	p.Reset()
	m.pkt = p
	var ent []uint64
	if m.ctr != nil {
		ent = m.ctr.entries
	}
	vs := m.regs
	chains := l.chains
	// Until a packet runs out, Steps grows by exactly the fuel it burns.
	fuel := m.cfg.Fuel
	ci := int32(0)
chain:
	for {
		c := &chains[ci]
		if fuel < int(c.size) {
			m.Steps += uint64(m.cfg.Fuel - fuel)
			m.fuel = fuel
			return m.reference(int(l.tab[c.lo]))
		}
		fuel -= int(c.size)
		if ent != nil {
			ent[ci]++
		}
		ss := c.steps
		for k := range ss {
			s := &ss[k]
			switch s.op {
			case xAdd:
				vs[s.id] = (vs[s.a0] + vs[s.a1]) & s.mask
			case xSub:
				vs[s.id] = (vs[s.a0] - vs[s.a1]) & s.mask
			case xMul:
				vs[s.id] = (vs[s.a0] * vs[s.a1]) & s.mask
			case xUDiv:
				if d := vs[s.a1]; d == 0 {
					vs[s.id] = s.mask // all-ones, like NIC firmware
				} else {
					vs[s.id] = (vs[s.a0] / d) & s.mask
				}
			case xURem:
				if d := vs[s.a1]; d == 0 {
					vs[s.id] = 0
				} else {
					vs[s.id] = (vs[s.a0] % d) & s.mask
				}
			case xAnd:
				vs[s.id] = vs[s.a0] & vs[s.a1] & s.mask
			case xOr:
				vs[s.id] = (vs[s.a0] | vs[s.a1]) & s.mask
			case xXor:
				vs[s.id] = (vs[s.a0] ^ vs[s.a1]) & s.mask
			case xShl:
				sh := vs[s.a1] & 63
				vs[s.id] = (vs[s.a0] << sh) & s.mask
			case xLShr:
				sh := vs[s.a1] & 63
				vs[s.id] = (vs[s.a0] >> sh) & s.mask
			case xNot:
				vs[s.id] = ^vs[s.a0] & s.mask
			case xMask:
				vs[s.id] = vs[s.a0] & s.mask
			case xICmp:
				vs[s.id] = b2u(cmpPred(s.pred, vs[s.a0], vs[s.a1]))
			case xLLoad:
				vs[s.id] = vs[s.a0]
			case xLStore:
				vs[s.id] = vs[s.a0] & s.mask
			case xCallPayload:
				if i := vs[s.a0]; i < uint64(len(p.Payload)) {
					vs[s.id] = uint64(p.Payload[i])
				} else {
					vs[s.id] = 0
				}
			case xCallSetPayload:
				if i := vs[s.a0]; i < uint64(len(p.Payload)) {
					p.Payload[i] = byte(vs[s.a1])
				}
			case xCallHash32:
				vs[s.id] = uint64(Hash32(vs[s.a0]))
			case xPktGet:
				vs[s.id] = pktGet(p, s.k)
			case xPktSet:
				pktSet(p, s.k, vs[s.a0])
			case xCall:
				m.call(s.call, int(s.k))
			case xGLoadS:
				vs[s.id] = m.gl[s.gi].scalar
			case xGStoreS:
				m.gl[s.gi].scalar = vs[s.a0] & s.mask
			case xGLoadAP:
				vs[s.id] = m.gl[s.gi].array[vs[s.a0]&s.aux]
			case xGStoreAP:
				m.gl[s.gi].array[vs[s.a1]&s.aux] = vs[s.a0] & s.mask
			case xGLoadA:
				vs[s.id] = m.gl[s.gi].array[vs[s.a0]%s.aux]
			case xGStoreA:
				m.gl[s.gi].array[vs[s.a1]%s.aux] = vs[s.a0] & s.mask
			case vAddC:
				vs[s.id] = (vs[s.a0] + s.aux) & s.mask
			case vSubC:
				vs[s.id] = (vs[s.a0] - s.aux) & s.mask
			case vMulC:
				vs[s.id] = (vs[s.a0] * s.aux) & s.mask
			case vAndC:
				vs[s.id] = vs[s.a0] & s.aux // aux already folds the width mask
			case vOrC:
				vs[s.id] = (vs[s.a0] | s.aux) & s.mask
			case vXorC:
				vs[s.id] = (vs[s.a0] ^ s.aux) & s.mask
			case vShlC:
				vs[s.id] = (vs[s.a0] << s.aux) & s.mask
			case vLShrC:
				vs[s.id] = (vs[s.a0] >> s.aux) & s.mask
			case vICmpC:
				vs[s.id] = b2u(cmpPred(s.pred, vs[s.a0], s.aux))
			case vAddS:
				r := (vs[s.a0] + vs[s.a1]) & s.mask
				vs[s.id] = r
				vs[s.gi] = r & s.sm
			case vSubS:
				r := (vs[s.a0] - vs[s.a1]) & s.mask
				vs[s.id] = r
				vs[s.gi] = r & s.sm
			case vMulS:
				r := (vs[s.a0] * vs[s.a1]) & s.mask
				vs[s.id] = r
				vs[s.gi] = r & s.sm
			case vAndS:
				r := vs[s.a0] & vs[s.a1] & s.mask
				vs[s.id] = r
				vs[s.gi] = r & s.sm
			case vOrS:
				r := (vs[s.a0] | vs[s.a1]) & s.mask
				vs[s.id] = r
				vs[s.gi] = r & s.sm
			case vXorS:
				r := (vs[s.a0] ^ vs[s.a1]) & s.mask
				vs[s.id] = r
				vs[s.gi] = r & s.sm
			case vShlS:
				r := (vs[s.a0] << (vs[s.a1] & 63)) & s.mask
				vs[s.id] = r
				vs[s.gi] = r & s.sm
			case vLShrS:
				r := (vs[s.a0] >> (vs[s.a1] & 63)) & s.mask
				vs[s.id] = r
				vs[s.gi] = r & s.sm
			case vMaskS:
				r := vs[s.a0] & s.mask
				vs[s.id] = r
				vs[s.gi] = r & s.sm
			case vAddCS:
				r := (vs[s.a0] + s.aux) & s.mask
				vs[s.id] = r
				vs[s.gi] = r & s.sm
			case vSubCS:
				r := (vs[s.a0] - s.aux) & s.mask
				vs[s.id] = r
				vs[s.gi] = r & s.sm
			case vMulCS:
				r := (vs[s.a0] * s.aux) & s.mask
				vs[s.id] = r
				vs[s.gi] = r & s.sm
			case vAndCS:
				r := vs[s.a0] & s.aux
				vs[s.id] = r
				vs[s.gi] = r & s.sm
			case vOrCS:
				r := (vs[s.a0] | s.aux) & s.mask
				vs[s.id] = r
				vs[s.gi] = r & s.sm
			case vXorCS:
				r := (vs[s.a0] ^ s.aux) & s.mask
				vs[s.id] = r
				vs[s.gi] = r & s.sm
			case vShlCS:
				r := (vs[s.a0] << s.aux) & s.mask
				vs[s.id] = r
				vs[s.gi] = r & s.sm
			case vLShrCS:
				r := (vs[s.a0] >> s.aux) & s.mask
				vs[s.id] = r
				vs[s.gi] = r & s.sm
			case xBr:
				ci = s.k
				continue chain
			case xCondBr:
				if vs[s.a0] != 0 {
					ci = s.k
				} else {
					ci = s.gi
				}
				continue chain
			case xCmpBr:
				if cmpPred(s.pred, vs[s.a0], vs[s.a1]) {
					vs[s.id] = 1
					ci = s.k
				} else {
					vs[s.id] = 0
					ci = s.gi
				}
				continue chain
			case xRet:
				break chain
			}
		}
	}
	m.Steps += uint64(m.cfg.Fuel - fuel)
	return nil
}
