package interp

import (
	"clara/internal/ir"
	"clara/internal/traffic"
)

// vstep is one instruction of the step engine, pre-resolved to flat
// operand indices into the machine's combined register array. A chain's
// body is a []vstep walked by one dense switch (execSteps), so the
// per-instruction cost is a predicted jump plus the op itself.
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
	gi   int32 // global index (global accesses) or store slot (S variants)
	// k is the baked state-counter index (-1 when not counting), the block
	// index for xCall, or the counted block for vCount.
	k    int32
	op   xop
	pred ir.Pred
}

// Step-only pseudo-ops, never present in cInstr form. peepholeSteps
// produces the first three families: C variants bake a constant right
// operand into the step (const-pool cells are immutable, preloaded at
// machine construction), S variants fold a following local store of the
// step's own result into the same step, CS variants do both. vCount is the
// block counter of a chain's non-head block in a counting lowering. Values
// start past the real xop enum so the execSteps switch can host both sets.
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
	vCount
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

// execSteps runs one chain body, or a block's part of one. Every step
// writes its result cell (write-through), so later steps and other blocks
// observe exactly the state the reference loop would leave. A call that
// fails parks its error in m.err and abandons the body, as the reference
// loop does.
func execSteps(m *Machine, vs []uint64, ss []vstep) {
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
			if i := vs[s.a0]; i < uint64(len(m.pkt.Payload)) {
				vs[s.id] = uint64(m.pkt.Payload[i])
			} else {
				vs[s.id] = 0
			}
		case xCallSetPayload:
			if i := vs[s.a0]; i < uint64(len(m.pkt.Payload)) {
				m.pkt.Payload[i] = byte(vs[s.a1])
			}
		case xCallHash32:
			vs[s.id] = uint64(Hash32(vs[s.a0]))
		case xCall:
			if err := m.call(s.call, int(s.k)); err != nil {
				m.err = err
				return
			}
		case xGLoadS:
			vs[s.id] = m.gl[s.gi].scalar
			if s.k >= 0 {
				m.ctr.State[s.k]++
			}
		case xGStoreS:
			m.gl[s.gi].scalar = vs[s.a0] & s.mask
			if s.k >= 0 {
				m.ctr.State[s.k]++
			}
		case xGLoadAP:
			vs[s.id] = m.gl[s.gi].array[vs[s.a0]&s.aux]
			if s.k >= 0 {
				m.ctr.State[s.k]++
			}
		case xGStoreAP:
			m.gl[s.gi].array[vs[s.a1]&s.aux] = vs[s.a0] & s.mask
			if s.k >= 0 {
				m.ctr.State[s.k]++
			}
		case xGLoadA:
			vs[s.id] = m.gl[s.gi].array[vs[s.a0]%s.aux]
			if s.k >= 0 {
				m.ctr.State[s.k]++
			}
		case xGStoreA:
			m.gl[s.gi].array[vs[s.a1]%s.aux] = vs[s.a0] & s.mask
			if s.k >= 0 {
				m.ctr.State[s.k]++
			}
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
		case vCount:
			m.ctr.Block[s.k]++
		}
	}
}

// lowered is a program's step-engine form (plain, or counting with baked
// counter rows): its chains, chain 0 rooted at the entry block, and every
// chain's blocks in one flat table. Shared, immutable, and
// machine-independent — steps reach mutable state only through the
// *Machine they are run on.
type lowered struct {
	chains []sChain
	segs   []seg
}

// sChain is a superblock in step form: a run of basic blocks joined by
// unconditional branches, their bodies laid end to end as one []vstep,
// plus the last block's terminator resolved to register cells and chain
// indices. Kept at 64 bytes: the loop indexes chains once per dispatch.
type sChain struct {
	steps []vstep
	// size is the chain's source IR instruction count — fuel and Steps
	// charge by it, so elision and peephole folding never change the cost
	// model.
	size int32
	head int32 // the first block, counted on entry
	// a0, a1 and id are the terminator's operand and result cells (xCmpBr
	// still writes its comparison result); t and f its target chains.
	a0, a1, id int32
	t, f       int32
	// seg and nseg place the chain's blocks in lowered.segs; only a packet
	// short of fuel for the whole chain reads them (starve).
	seg  int32
	nseg uint8
	term xop // xRet, xBr, xCondBr or xCmpBr
	pred ir.Pred
	// hasCall marks chains holding an xCall step, the only kind that can
	// set m.err; the loop skips the error gate for every other chain. A
	// call ends its chain, so the step is in the last block.
	hasCall bool
}

// seg is one block of a chain: its source IR size and where its steps end
// in the chain's body. In a counting lowering a non-head block's steps
// begin with its vCount step, at the previous block's end.
type seg struct {
	block, size, end int32
}

// runSteps executes one packet through the step engine, in the reference
// loop's observable order: block counter, then the fuel gate (a packet
// that exhausts fuel aborts at block entry with Steps not charged for the
// aborted block), then the body, then the terminator. A chain whose blocks
// all fit in the fuel left is charged once and run as one body — its
// non-head block counters are steps inside it, and only its last block can
// fail — which is what the reference loop observes block by block; one
// that does not fit is walked block by block (starve). Fuel and Steps live
// in locals while the loop runs — no hooks exist on this path, so nothing
// can observe the machine mid-packet — and are flushed on every exit so
// the fields read exactly as the reference loop leaves them.
func (m *Machine) runSteps(l *lowered, p *traffic.Packet) error {
	p.Reset()
	m.pkt = p
	m.err = nil
	var blk []uint64
	if m.ctr != nil {
		blk = m.ctr.Block
	}
	vs := m.regs
	chains := l.chains
	// Until a packet runs out, Steps grows by exactly the fuel it burns.
	fuel := m.cfg.Fuel
	ci := int32(0)
	var err error
	for {
		c := &chains[ci]
		if blk != nil {
			blk[c.head]++
		}
		if fuel < int(c.size) {
			var short int
			fuel, short = m.starve(c, l.segs[c.seg:c.seg+int32(c.nseg)], vs, blk, fuel)
			m.Steps += uint64(m.cfg.Fuel - fuel)
			m.fuel = fuel - short
			return ErrFuel
		}
		fuel -= int(c.size)
		if len(c.steps) > 0 {
			execSteps(m, vs, c.steps)
			if c.hasCall && m.err != nil {
				err = m.err
				break
			}
		}
		switch c.term {
		case xBr:
			ci = c.t
			continue
		case xCondBr:
			if vs[c.a0] != 0 {
				ci = c.t
			} else {
				ci = c.f
			}
			continue
		case xCmpBr:
			if cmpPred(c.pred, vs[c.a0], vs[c.a1]) {
				vs[c.id] = 1
				ci = c.t
			} else {
				vs[c.id] = 0
				ci = c.f
			}
			continue
		}
		break // xRet
	}
	m.Steps += uint64(m.cfg.Fuel - fuel)
	m.fuel = fuel
	return err
}

// starve runs c for a packet whose fuel cannot cover the whole chain, one
// block at a time in the reference loop's order. The head's counter has
// been taken. Since the chain's size exceeds fuel, some block runs out — at
// the latest the last one, before its body, so the one block that may hold
// a call never runs here and the packet always ends in ErrFuel. starve
// returns the fuel left before the block that ran out, and that block's
// size.
func (m *Machine) starve(c *sChain, segs []seg, vs, blk []uint64, fuel int) (int, int) {
	lo := int32(0)
	for i := range segs {
		s := &segs[i]
		if i > 0 && blk != nil {
			blk[s.block]++
			lo++ // past the vCount step just accounted for
		}
		if fuel < int(s.size) {
			return fuel, int(s.size)
		}
		fuel -= int(s.size)
		execSteps(m, vs, c.steps[lo:s.end])
		lo = s.end
	}
	panic("interp: chain fits the fuel it was starved of")
}
