// Package ir defines the typed, SSA-flavored intermediate representation
// that Clara analyzes. It plays the role LLVM IR plays in the paper: NF
// programs written in the NFC mini-language (internal/lang) are lowered to
// this IR "with most optimizations disabled" — in particular, function-local
// variables remain explicit stack-slot loads and stores (as LLVM -O0 would
// emit), so that the NIC compiler's register allocation is something a
// learned model has to infer, exactly as in the paper (§3.2).
//
// The IR distinguishes, by opcode, the three instruction classes the paper's
// analysis cares about (Figure 5):
//
//   - compute instructions (arithmetic, logic, compares, casts),
//   - memory accesses to stateful NF variables (GLoad/GStore on globals),
//   - stateless local-variable traffic (LLoad/LStore on stack slots), and
//   - NF framework API calls (Call), which are reverse ported rather than
//     predicted.
package ir

import (
	"fmt"
	"strconv"
	"sync"
)

// Type is an IR value type. The NFC language is an unsigned-integer subset
// (plus booleans), which mirrors the restricted C dialects of baremetal
// SmartNICs.
type Type uint8

// Value types.
const (
	Void Type = iota
	Bool      // 1-bit truth value (icmp results, conditions)
	U8
	U16
	U32
	U64
)

// Size returns the size of the type in bytes (Bool occupies one byte in
// stateful storage).
func (t Type) Size() int {
	switch t {
	case U8, Bool:
		return 1
	case U16:
		return 2
	case U32:
		return 4
	case U64:
		return 8
	default:
		return 0
	}
}

// Bits returns the width of the type in bits.
func (t Type) Bits() int {
	if t == Bool {
		return 1
	}
	return t.Size() * 8
}

func (t Type) String() string {
	switch t {
	case Void:
		return "void"
	case Bool:
		return "i1"
	case U8:
		return "u8"
	case U16:
		return "u16"
	case U32:
		return "u32"
	case U64:
		return "u64"
	default:
		return fmt.Sprintf("type(%d)", uint8(t))
	}
}

// Op is an IR opcode.
type Op uint8

// Opcodes.
const (
	OpInvalid Op = iota

	// Compute.
	OpAdd
	OpSub
	OpMul
	OpUDiv
	OpURem
	OpAnd
	OpOr
	OpXor
	OpShl
	OpLShr
	OpICmp // predicate in Instr.Pred
	OpZExt
	OpTrunc
	OpNot // bitwise complement

	// Stateless local-variable traffic (stack slots; the NIC compiler
	// register-allocates these away, possibly with spills).
	OpLLoad  // result <- slot
	OpLStore // slot <- arg

	// Stateful memory accesses (global NF state).
	OpGLoad  // result <- global[index?]
	OpGStore // global[index?] <- value

	// NF framework API call (reverse ported, never predicted).
	OpCall

	// Control flow (block terminators).
	OpBr     // unconditional
	OpCondBr // Args[0] = condition; True/False successors
	OpRet    // optional Args[0]
)

var opNames = [...]string{
	OpInvalid: "invalid",
	OpAdd:     "add",
	OpSub:     "sub",
	OpMul:     "mul",
	OpUDiv:    "udiv",
	OpURem:    "urem",
	OpAnd:     "and",
	OpOr:      "or",
	OpXor:     "xor",
	OpShl:     "shl",
	OpLShr:    "lshr",
	OpICmp:    "icmp",
	OpZExt:    "zext",
	OpTrunc:   "trunc",
	OpNot:     "not",
	OpLLoad:   "lload",
	OpLStore:  "lstore",
	OpGLoad:   "gload",
	OpGStore:  "gstore",
	OpCall:    "call",
	OpBr:      "br",
	OpCondBr:  "cbr",
	OpRet:     "ret",
}

func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// IsCompute reports whether the opcode is a stateless compute instruction.
func (o Op) IsCompute() bool {
	switch o {
	case OpAdd, OpSub, OpMul, OpUDiv, OpURem, OpAnd, OpOr, OpXor,
		OpShl, OpLShr, OpICmp, OpZExt, OpTrunc, OpNot:
		return true
	}
	return false
}

// IsStatefulMem reports whether the opcode accesses stateful (global) NF
// memory. These are the accesses the paper counts directly from the IR.
func (o Op) IsStatefulMem() bool { return o == OpGLoad || o == OpGStore }

// IsLocalMem reports whether the opcode accesses a function-local stack
// slot (stateless variable traffic).
func (o Op) IsLocalMem() bool { return o == OpLLoad || o == OpLStore }

// IsTerminator reports whether the opcode terminates a basic block.
func (o Op) IsTerminator() bool { return o == OpBr || o == OpCondBr || o == OpRet }

// Pos is a source position (1-based line and column) carried from the NFC
// frontend through lowering. The zero Pos means "unknown": synthesized or
// hand-built IR has no source to point into. Diagnostics (internal/analysis)
// anchor to these positions.
type Pos struct {
	Line int
	Col  int
}

// IsValid reports whether the position refers to real source.
func (p Pos) IsValid() bool { return p.Line > 0 }

func (p Pos) String() string {
	if !p.IsValid() {
		return "-"
	}
	return fmt.Sprintf("%d:%d", p.Line, p.Col)
}

// Pred is an integer-comparison predicate for OpICmp.
type Pred uint8

// Comparison predicates (unsigned).
const (
	PredNone Pred = iota
	PredEQ
	PredNE
	PredULT
	PredULE
	PredUGT
	PredUGE
)

func (p Pred) String() string {
	switch p {
	case PredEQ:
		return "eq"
	case PredNE:
		return "ne"
	case PredULT:
		return "ult"
	case PredULE:
		return "ule"
	case PredUGT:
		return "ugt"
	case PredUGE:
		return "uge"
	default:
		return "none"
	}
}

// Negate returns the logically negated predicate.
func (p Pred) Negate() Pred {
	switch p {
	case PredEQ:
		return PredNE
	case PredNE:
		return PredEQ
	case PredULT:
		return PredUGE
	case PredULE:
		return PredUGT
	case PredUGT:
		return PredULE
	case PredUGE:
		return PredULT
	default:
		return PredNone
	}
}

// ValueKind discriminates the operand kinds an instruction may reference.
// The kinds double as the paper's "vocabulary compaction" (§3.2): a concrete
// operand is abstracted to its kind when instructions are encoded for the
// sequence model.
type ValueKind uint8

// Operand kinds.
const (
	VInvalid ValueKind = iota
	VInstr             // result of another instruction (a virtual register)
	VConst             // integer literal
)

// Value is an instruction operand.
type Value struct {
	Kind  ValueKind
	ID    int   // instruction ID for VInstr
	Const int64 // literal for VConst
	Ty    Type
}

// ConstVal returns a constant operand of the given type.
func ConstVal(c int64, ty Type) Value { return Value{Kind: VConst, Const: c, Ty: ty} }

// InstrVal returns an operand referring to instruction id.
func InstrVal(id int, ty Type) Value { return Value{Kind: VInstr, ID: id, Ty: ty} }

func (v Value) String() string { return string(v.appendTo(nil)) }

// appendTo appends the operand's printed form to b.
func (v Value) appendTo(b []byte) []byte {
	switch v.Kind {
	case VInstr:
		return strconv.AppendInt(append(b, '%'), int64(v.ID), 10)
	case VConst:
		return strconv.AppendInt(b, v.Const, 10)
	default:
		return append(b, "<invalid>"...)
	}
}

// Instr is a single IR instruction. Instructions producing a value carry a
// non-negative ID unique within their function.
type Instr struct {
	ID   int // SSA value number; -1 when the instruction produces no value
	Op   Op
	Ty   Type // result type (or stored value type for stores)
	Pred Pred // icmp predicate

	Args []Value

	// Slot is the stack-slot index for LLoad/LStore.
	Slot int

	// Global is the referenced global's name for GLoad/GStore, and the
	// state argument for map/vector framework calls.
	Global string

	// Callee is the framework API name for OpCall.
	Callee string

	// True/False are successor block indices for terminators (True doubles
	// as the unconditional target for OpBr).
	True, False int

	// Pos is the source position the instruction was lowered from (zero
	// for synthesized IR).
	Pos Pos
}

func (in *Instr) String() string { return string(in.appendTo(nil)) }

// appendTo appends the instruction's printed form to b.
func (in *Instr) appendTo(b []byte) []byte {
	if in.ID >= 0 {
		b = strconv.AppendInt(append(b, '%'), int64(in.ID), 10)
		b = append(b, " = "...)
	}
	b = append(b, in.Op.String()...)
	if in.Op == OpICmp {
		b = append(append(b, ' '), in.Pred.String()...)
	}
	if in.Ty != Void {
		b = append(append(b, ' '), in.Ty.String()...)
	}
	switch in.Op {
	case OpLLoad, OpLStore:
		b = strconv.AppendInt(append(b, " slot"...), int64(in.Slot), 10)
	case OpGLoad, OpGStore:
		b = append(append(b, " @"...), in.Global...)
	case OpCall:
		b = append(append(b, " @"...), in.Callee...)
		if in.Global != "" {
			b = append(append(append(b, '<'), in.Global...), '>')
		}
	}
	for i, a := range in.Args {
		if i == 0 {
			b = append(b, ' ')
		} else {
			b = append(b, ", "...)
		}
		b = a.appendTo(b)
	}
	switch in.Op {
	case OpBr:
		b = appendBlock(append(b, ' '), in.True)
	case OpCondBr:
		b = appendBlock(append(b, ' '), in.True)
		b = appendBlock(append(b, ", "...), in.False)
	}
	return b
}

// appendBlock appends a block reference, b<index>.
func appendBlock(b []byte, index int) []byte {
	return strconv.AppendInt(append(b, 'b'), int64(index), 10)
}

// Block is a basic block: a straight-line instruction sequence ending in a
// terminator. Blocks correspond to the CFG nodes of Figure 2(b).
type Block struct {
	Index  int
	Name   string
	Instrs []*Instr
}

// Terminator returns the block's terminating instruction, or nil if the
// block is not yet terminated.
func (b *Block) Terminator() *Instr {
	if len(b.Instrs) == 0 {
		return nil
	}
	t := b.Instrs[len(b.Instrs)-1]
	if !t.Op.IsTerminator() {
		return nil
	}
	return t
}

// Succs returns the indices of the block's successor blocks.
func (b *Block) Succs() []int {
	t := b.Terminator()
	if t == nil {
		return nil
	}
	switch t.Op {
	case OpBr:
		return []int{t.True}
	case OpCondBr:
		if t.True == t.False {
			return []int{t.True}
		}
		return []int{t.True, t.False}
	default:
		return nil
	}
}

// Param is a parameter of an NFC subroutine. The frontend inlines every
// subroutine into the handler, which takes none, so no IR function has one.
type Param struct {
	Name string
	Ty   Type
}

// Func is an IR function: a list of basic blocks, entry first.
type Func struct {
	Name    string
	Ret     Type
	Blocks  []*Block
	NumVals int // number of SSA values (instruction IDs are [0, NumVals))
	NSlots  int // number of local stack slots
}

// GlobalKind discriminates stateful NF data-structure kinds.
type GlobalKind uint8

// Global kinds.
const (
	GScalar GlobalKind = iota
	GArray
	GMap
	GVec
)

func (k GlobalKind) String() string {
	switch k {
	case GScalar:
		return "scalar"
	case GArray:
		return "array"
	case GMap:
		return "map"
	case GVec:
		return "vec"
	default:
		return "?"
	}
}

// Global is a stateful NF variable: a scalar counter, a fixed-capacity
// array, or a hash map (Click HashMap analog). Data-structure sizes are
// static, as required by baremetal NICs without dynamic allocation.
type Global struct {
	Name string
	Kind GlobalKind
	Elem Type // scalar/array element type; map value type
	Key  Type // map key type
	Len  int  // array length or map capacity (entries)
}

// mapSlotOverhead is the per-entry metadata overhead (occupancy tag) of a
// map entry in stateful storage, in bytes.
const mapSlotOverhead = 1

// SizeBytes returns the stateful-storage footprint of the global.
func (g *Global) SizeBytes() int {
	switch g.Kind {
	case GScalar:
		return g.Elem.Size()
	case GArray:
		return g.Len * g.Elem.Size()
	case GMap:
		return g.Len * (g.Key.Size() + g.Elem.Size() + mapSlotOverhead)
	case GVec:
		// element + occupancy tag per slot, plus a length word
		return g.Len*(g.Elem.Size()+1) + 4
	default:
		return 0
	}
}

// Module is a compilation unit: one NF element. Func is its one function,
// the packet handler named "handle" (the frontend inlines every subroutine
// into it; Verify rejects a module without it).
type Module struct {
	Name    string
	Globals []*Global
	Func    *Func

	// fp memoizes Fingerprint. Modules are immutable once built (the
	// invariant every fingerprint consumer already relies on), so the
	// content hash is computed at most once; fpOnce makes the memo safe
	// under the fleet's concurrent per-job hashing.
	fp     [32]byte
	fpOnce sync.Once
}

// HandlerName is the conventional name of an NF element's per-packet entry
// point (the analog of Click's simple_action).
const HandlerName = "handle"

// Global returns the named global, or nil.
func (m *Module) Global(name string) *Global {
	for _, g := range m.Globals {
		if g.Name == name {
			return g
		}
	}
	return nil
}

// Handler returns the packet-handler function, m.Func, or nil.
func (m *Module) Handler() *Func { return m.Func }

// blocks returns the handler's blocks: none for a module without one.
func (m *Module) blocks() []*Block {
	if m.Func == nil {
		return nil
	}
	return m.Func.Blocks
}

// String renders the module in a textual form resembling LLVM assembly.
func (m *Module) String() string {
	return string(m.appendTo(make([]byte, 0, m.printSizeHint())))
}

// appendTo appends the module's printed form to b. It is the one printer:
// String wraps it, and Fingerprint hashes its output.
func (m *Module) appendTo(b []byte) []byte {
	b = append(append(append(b, "module "...), m.Name...), '\n')
	for _, g := range m.Globals {
		switch g.Kind {
		case GScalar, GArray:
			b = append(append(b, "global "...), g.Elem.String()...)
		case GMap:
			b = append(append(b, "global map<"...), g.Key.String()...)
			b = append(append(append(b, ','), g.Elem.String()...), '>')
		case GVec:
			b = append(append(append(b, "global vec<"...), g.Elem.String()...), '>')
		default:
			continue // an unknown kind prints nothing
		}
		b = append(append(b, " @"...), g.Name...)
		if g.Kind != GScalar {
			b = strconv.AppendInt(append(b, '['), int64(g.Len), 10)
			b = append(b, ']')
		}
		b = append(b, '\n')
	}
	f := m.Func
	if f == nil {
		return b
	}
	b = append(append(append(b, "func @"...), f.Name...), "() "...)
	b = append(append(b, f.Ret.String()...), " {\n"...)
	for _, blk := range f.Blocks {
		b = appendBlock(b, blk.Index)
		b = append(append(append(b, ": ; "...), blk.Name...), '\n')
		for _, in := range blk.Instrs {
			b = append(in.appendTo(append(b, "  "...)), '\n')
		}
	}
	return append(b, "}\n"...)
}

// printSizeHint estimates the length of m's printed form, generously for
// the IR the frontend emits (an instruction prints in at most 24 bytes
// plus its names and operands), so the printer fills one buffer; IR that
// prints longer only makes the buffer grow.
func (m *Module) printSizeHint() int {
	n := 16 + len(m.Name)
	for _, g := range m.Globals {
		n += 48 + len(g.Name)
	}
	if m.Func != nil {
		n += 32 + len(m.Func.Name)
	}
	for _, blk := range m.blocks() {
		n += 16 + len(blk.Name)
		for _, in := range blk.Instrs {
			n += 32 + 8*len(in.Args) + len(in.Global) + len(in.Callee)
		}
	}
	return n
}

// Stats summarizes a module the way Table 2 summarizes an element.
type Stats struct {
	Compute   int // compute IR instructions
	LocalMem  int // stateless local slot accesses
	StateMem  int // stateful global accesses (static count)
	APICalls  int // framework API call sites
	Blocks    int
	Stateful  bool // has globals
	StateSize int  // total stateful bytes
}

// ModuleStats computes static instruction statistics over the handler.
func ModuleStats(m *Module) Stats {
	s := Stats{Blocks: len(m.blocks())}
	for _, b := range m.blocks() {
		for _, in := range b.Instrs {
			switch {
			case in.Op.IsCompute():
				s.Compute++
			case in.Op.IsLocalMem():
				s.LocalMem++
			case in.Op.IsStatefulMem():
				s.StateMem++
			case in.Op == OpCall:
				s.APICalls++
			}
		}
	}
	s.Stateful = len(m.Globals) > 0
	for _, g := range m.Globals {
		s.StateSize += g.SizeBytes()
	}
	return s
}
