package ir

// Builder incrementally constructs a Func. The lowering pass
// (internal/lang) builds IR through it.
type Builder struct {
	F   *Func
	cur *Block
	pos Pos // stamped onto every emitted instruction
}

// At sets the source position stamped onto subsequently emitted
// instructions (the zero Pos marks them position-less).
func (b *Builder) At(p Pos) { b.pos = p }

// NewBuilder starts a function with an entry block.
func NewBuilder(name string, ret Type) *Builder {
	f := &Func{Name: name, Ret: ret}
	b := &Builder{F: f}
	b.NewBlock("entry")
	return b
}

// NewBlock appends a new block and makes it current.
func (b *Builder) NewBlock(name string) *Block {
	blk := &Block{Index: len(b.F.Blocks), Name: name}
	b.F.Blocks = append(b.F.Blocks, blk)
	b.cur = blk
	return blk
}

// SetBlock switches the insertion point.
func (b *Builder) SetBlock(blk *Block) { b.cur = blk }

// Current returns the current insertion block.
func (b *Builder) Current() *Block { return b.cur }

// NewSlot allocates a fresh local stack slot.
func (b *Builder) NewSlot() int {
	s := b.F.NSlots
	b.F.NSlots++
	return s
}

func (b *Builder) emit(in *Instr) *Instr {
	in.Pos = b.pos
	b.cur.Instrs = append(b.cur.Instrs, in)
	return in
}

func (b *Builder) value(in *Instr) Value {
	in.ID = b.F.NumVals
	b.F.NumVals++
	b.emit(in)
	return InstrVal(in.ID, in.Ty)
}

// Bin emits a binary compute instruction.
func (b *Builder) Bin(op Op, ty Type, x, y Value) Value {
	return b.value(&Instr{ID: -1, Op: op, Ty: ty, Args: []Value{x, y}})
}

// ICmp emits a comparison producing Bool.
func (b *Builder) ICmp(p Pred, x, y Value) Value {
	return b.value(&Instr{ID: -1, Op: OpICmp, Ty: Bool, Pred: p, Args: []Value{x, y}})
}

// Not emits a bitwise complement.
func (b *Builder) Not(ty Type, x Value) Value {
	return b.value(&Instr{ID: -1, Op: OpNot, Ty: ty, Args: []Value{x}})
}

// ZExt widens x to ty (no-op widths are the caller's concern).
func (b *Builder) ZExt(ty Type, x Value) Value {
	return b.value(&Instr{ID: -1, Op: OpZExt, Ty: ty, Args: []Value{x}})
}

// Trunc narrows x to ty.
func (b *Builder) Trunc(ty Type, x Value) Value {
	return b.value(&Instr{ID: -1, Op: OpTrunc, Ty: ty, Args: []Value{x}})
}

// Convert coerces x to ty, emitting zext/trunc as needed.
func (b *Builder) Convert(ty Type, x Value) Value {
	if x.Ty == ty || ty == Void {
		return x
	}
	if ty.Bits() > x.Ty.Bits() {
		return b.ZExt(ty, x)
	}
	if ty.Bits() < x.Ty.Bits() {
		return b.Trunc(ty, x)
	}
	return x
}

// LLoad loads a local slot.
func (b *Builder) LLoad(slot int, ty Type) Value {
	return b.value(&Instr{ID: -1, Op: OpLLoad, Ty: ty, Slot: slot})
}

// LStore stores to a local slot.
func (b *Builder) LStore(slot int, v Value) {
	b.emit(&Instr{ID: -1, Op: OpLStore, Ty: v.Ty, Slot: slot, Args: []Value{v}})
}

// GLoad loads a global scalar (index == nil) or array element.
func (b *Builder) GLoad(g string, ty Type, index *Value) Value {
	in := &Instr{ID: -1, Op: OpGLoad, Ty: ty, Global: g}
	if index != nil {
		in.Args = []Value{*index}
	}
	return b.value(in)
}

// GStore stores to a global scalar (index == nil) or array element.
func (b *Builder) GStore(g string, v Value, index *Value) {
	in := &Instr{ID: -1, Op: OpGStore, Ty: v.Ty, Global: g, Args: []Value{v}}
	if index != nil {
		in.Args = append(in.Args, *index)
	}
	b.emit(in)
}

// Call emits a framework API call. global names the state argument for
// map/vector APIs ("" otherwise).
func (b *Builder) Call(callee, global string, ret Type, args ...Value) Value {
	in := &Instr{ID: -1, Op: OpCall, Ty: ret, Callee: callee, Global: global, Args: args}
	if ret == Void {
		b.emit(in)
		return Value{}
	}
	return b.value(in)
}

// Br emits an unconditional branch.
func (b *Builder) Br(target *Block) {
	b.emit(&Instr{ID: -1, Op: OpBr, True: target.Index})
}

// CondBr emits a conditional branch.
func (b *Builder) CondBr(cond Value, t, f *Block) {
	b.emit(&Instr{ID: -1, Op: OpCondBr, Args: []Value{cond}, True: t.Index, False: f.Index})
}

// Ret emits a return.
func (b *Builder) Ret(v *Value) {
	in := &Instr{ID: -1, Op: OpRet}
	if v != nil {
		in.Args = []Value{*v}
	}
	b.emit(in)
}

// Terminated reports whether the current block already ends in a
// terminator.
func (b *Builder) Terminated() bool { return b.cur.Terminator() != nil }
