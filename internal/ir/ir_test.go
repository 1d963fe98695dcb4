package ir

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestTypeSizes(t *testing.T) {
	cases := []struct {
		ty   Type
		size int
		bits int
	}{
		{Void, 0, 0},
		{Bool, 1, 1},
		{U8, 1, 8},
		{U16, 2, 16},
		{U32, 4, 32},
		{U64, 8, 64},
	}
	for _, c := range cases {
		if got := c.ty.Size(); got != c.size {
			t.Errorf("%s.Size() = %d, want %d", c.ty, got, c.size)
		}
		if got := c.ty.Bits(); got != c.bits {
			t.Errorf("%s.Bits() = %d, want %d", c.ty, got, c.bits)
		}
	}
}

func TestOpClassesDisjoint(t *testing.T) {
	for op := OpInvalid; op <= OpRet; op++ {
		n := 0
		if op.IsCompute() {
			n++
		}
		if op.IsStatefulMem() {
			n++
		}
		if op.IsLocalMem() {
			n++
		}
		if op.IsTerminator() {
			n++
		}
		if n > 1 {
			t.Errorf("op %s belongs to %d classes", op, n)
		}
	}
}

func TestPredNegateInvolution(t *testing.T) {
	preds := []Pred{PredEQ, PredNE, PredULT, PredULE, PredUGT, PredUGE}
	for _, p := range preds {
		if p.Negate().Negate() != p {
			t.Errorf("negate(negate(%s)) != %s", p, p)
		}
		if p.Negate() == p {
			t.Errorf("negate(%s) == %s", p, p)
		}
	}
}

func buildSimpleModule() *Module {
	b := NewBuilder(HandlerName, Void)
	s := b.NewSlot()
	b.LStore(s, ConstVal(1, U32))
	v := b.LLoad(s, U32)
	sum := b.Bin(OpAdd, U32, v, ConstVal(2, U32))
	cond := b.ICmp(PredULT, sum, ConstVal(10, U32))
	then := b.NewBlock("then")
	b.SetBlock(b.F.Blocks[0])
	exit := b.NewBlock("exit")
	b.SetBlock(b.F.Blocks[0])
	b.CondBr(cond, then, exit)
	b.SetBlock(then)
	b.GStore("ctr", sum, nil)
	b.Br(exit)
	b.SetBlock(exit)
	b.Ret(nil)
	return &Module{
		Name:    "m",
		Globals: []*Global{{Name: "ctr", Kind: GScalar, Elem: U32}},
		Func:    b.F,
	}
}

func TestBuilderAndVerify(t *testing.T) {
	m := buildSimpleModule()
	if err := Verify(m); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	st := ModuleStats(m)
	if st.Compute != 2 {
		t.Errorf("Compute = %d, want 2", st.Compute)
	}
	if st.StateMem != 1 {
		t.Errorf("StateMem = %d, want 1", st.StateMem)
	}
	if st.LocalMem != 2 {
		t.Errorf("LocalMem = %d, want 2", st.LocalMem)
	}
	if !st.Stateful || st.StateSize != 4 {
		t.Errorf("Stateful/StateSize = %v/%d, want true/4", st.Stateful, st.StateSize)
	}
}

func TestVerifyCatchesBadBranch(t *testing.T) {
	m := buildSimpleModule()
	m.Func.Blocks[0].Instrs[len(m.Func.Blocks[0].Instrs)-1].True = 99
	if err := Verify(m); err == nil {
		t.Fatal("Verify accepted out-of-range branch target")
	}
}

func TestVerifyCatchesUnterminated(t *testing.T) {
	m := buildSimpleModule()
	blk := m.Func.Blocks[2]
	blk.Instrs = blk.Instrs[:0]
	if err := Verify(m); err == nil {
		t.Fatal("Verify accepted unterminated block")
	}
}

// TestVerifyOneHandler: a module's one function is the handler.
func TestVerifyOneHandler(t *testing.T) {
	renamed := buildSimpleModule()
	renamed.Func.Name = "main"
	if err := Verify(renamed); err == nil {
		t.Error("Verify accepted a module whose only function is not the handler")
	}
	if err := Verify(&Module{Name: "empty"}); err == nil {
		t.Error("Verify accepted a module with no function")
	}
}

func TestVerifyCatchesUnknownGlobal(t *testing.T) {
	m := buildSimpleModule()
	m.Globals = nil
	if err := Verify(m); err == nil {
		t.Fatal("Verify accepted store to unknown global")
	}
}

func TestGlobalSizes(t *testing.T) {
	g := &Global{Kind: GScalar, Elem: U64}
	if g.SizeBytes() != 8 {
		t.Errorf("scalar u64 size = %d", g.SizeBytes())
	}
	g = &Global{Kind: GArray, Elem: U32, Len: 256}
	if g.SizeBytes() != 1024 {
		t.Errorf("array size = %d", g.SizeBytes())
	}
	g = &Global{Kind: GMap, Key: U64, Elem: U64, Len: 100}
	if g.SizeBytes() != 100*(8+8+1) {
		t.Errorf("map size = %d", g.SizeBytes())
	}
}

func TestVocabCompaction(t *testing.T) {
	m := buildSimpleModule()
	v := BuildVocab([]*Module{m}, true)
	if v.Size() < 4 {
		t.Fatalf("vocabulary too small: %d", v.Size())
	}
	// Unknown word maps to <unk>.
	if v.Index("no-such-word") != v.Index(UnknownWord) {
		t.Error("unknown word did not map to <unk>")
	}
	// Compact words never contain concrete value numbers.
	for _, w := range v.Words() {
		for i := 0; i < len(w); i++ {
			if w[i] == '%' {
				t.Errorf("compact word %q leaks a concrete operand", w)
			}
		}
	}
}

func TestVocabEncodeRoundTrip(t *testing.T) {
	v := NewVocab()
	a := v.Add("alpha")
	b := v.Add("beta")
	if v.Add("alpha") != a {
		t.Error("Add not idempotent")
	}
	got := v.Encode([]string{"beta", "alpha", "gamma"})
	want := []int{b, a, v.Index(UnknownWord)}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Encode = %v, want %v", got, want)
		}
	}
}

func TestWordDistinguishesOperandKinds(t *testing.T) {
	i1 := &Instr{Op: OpAdd, Ty: U32, Args: []Value{InstrVal(1, U32), ConstVal(2, U32)}}
	i2 := &Instr{Op: OpAdd, Ty: U32, Args: []Value{InstrVal(1, U32), InstrVal(3, U32)}}
	if Word(i1, true) == Word(i2, true) {
		t.Error("VAR+INT and VAR+VAR adds should differ")
	}
	i3 := &Instr{Op: OpAdd, Ty: U32, Args: []Value{InstrVal(7, U32), ConstVal(9, U32)}}
	if Word(i1, true) != Word(i3, true) {
		t.Error("compaction should erase concrete operand identities")
	}
	if Word(i1, false) == Word(i3, false) {
		t.Error("raw mode should keep concrete operands distinct")
	}
}

func TestAlignDistributions(t *testing.T) {
	p := map[string]float64{"add": 0.5, "mul": 0.5}
	q := map[string]float64{"add": 0.25, "xor": 0.75}
	pv, qv := AlignDistributions(p, q)
	if len(pv) != 3 || len(qv) != 3 {
		t.Fatalf("aligned lengths %d/%d, want 3", len(pv), len(qv))
	}
	var sp, sq float64
	for i := range pv {
		sp += pv[i]
		sq += qv[i]
	}
	if sp != 1 || sq != 1 {
		t.Errorf("aligned mass %v/%v, want 1/1", sp, sq)
	}
}

func TestValueKindProperty(t *testing.T) {
	// Property: ConstVal/InstrVal round-trip their payloads.
	f := func(c int64, id uint8) bool {
		cv := ConstVal(c, U64)
		iv := InstrVal(int(id), U32)
		return cv.Kind == VConst && cv.Const == c &&
			iv.Kind == VInstr && iv.ID == int(id)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestVerifyRejects holds Verify to every check the interpreter used to
// make on its own when compiling a module (one case each, plus the call
// arity and global-kind checks no consumer made): each mutation of a valid
// module must be refused, with the message naming what is wrong.
func TestVerifyRejects(t *testing.T) {
	// before1 inserts in ahead of block 1's terminator.
	before1 := func(m *Module, in *Instr) {
		b := m.Func.Blocks[1]
		b.Instrs = append([]*Instr{in}, b.Instrs...)
	}
	call := func(callee, global string, args ...Value) *Instr {
		return &Instr{ID: -1, Op: OpCall, Callee: callee, Global: global, Args: args}
	}
	// In buildSimpleModule, block 0 is lstore, lload, add, icmp, cbr;
	// block 1 a gstore and a br; block 2 a ret.
	add := func(m *Module) *Instr { return m.Func.Blocks[0].Instrs[2] }
	for _, tc := range []struct {
		name   string
		mutate func(m *Module)
		want   string
	}{
		{"no handler", func(m *Module) { m.Func = nil }, `want one function, "handle"`},
		{"empty block", func(m *Module) { m.Func.Blocks[2].Instrs = nil }, "block b2 (exit) not terminated"},
		{"no terminator", func(m *Module) { m.Func.Blocks[1].Instrs = m.Func.Blocks[1].Instrs[:1] }, "block b1 (then) not terminated"},
		{"terminator before last", func(m *Module) { before1(m, &Instr{ID: -1, Op: OpRet}) }, "b1: terminator ret not last"},
		{"br target", func(m *Module) { m.Func.Blocks[1].Terminator().True = 7 }, "b1: br target out of range"},
		{"cbr target", func(m *Module) { m.Func.Blocks[0].Terminator().False = 7 }, "b0: cbr target out of range"},
		{"zero-length array", func(m *Module) {
			m.Globals = append(m.Globals, &Global{Name: "arr", Kind: GArray, Elem: U32})
		}, `global "arr": array of length 0`},
		{"map API on a scalar", func(m *Module) { before1(m, call("map_size", "ctr")) }, `"ctr" is not a map`},
		{"operand out of range", func(m *Module) { add(m).Args[0].ID = 99 }, "bad operand %99"},
		{"operand kind", func(m *Module) { add(m).Args[0].Kind = VInvalid }, "invalid operand kind"},
		{"unknown global", func(m *Module) { m.Func.Blocks[1].Instrs[0].Global = "nope" }, `unknown global "nope"`},
		{"invalid opcode", func(m *Module) { add(m).Op = OpInvalid }, "b0: invalid opcode invalid"},
		{"value out of range", func(m *Module) { add(m).ID = 99 }, "b0: value %99 out of range"},
		{"slot out of range", func(m *Module) { m.Func.Blocks[0].Instrs[0].Slot = 5 }, "bad slot"},
		{"too many operands", func(m *Module) {
			add(m).Args = append(add(m).Args, ConstVal(3, U32))
		}, "3 operands, want at most 2"},
		{"stateless API naming a global", func(m *Module) { before1(m, call("pkt_drop", "nope")) }, `pkt_drop names global "nope" but takes none`},
		{"unknown API", func(m *Module) { before1(m, call("nope", "")) }, `unknown framework API "nope"`},
		{"call arity", func(m *Module) { before1(m, call("pkt_send", "")) }, "0 operands, want 1"},
		{"global access to a map", func(m *Module) {
			m.Globals = append(m.Globals, &Global{Name: "tbl", Kind: GMap, Key: U64, Elem: U64, Len: 16})
			m.Func.Blocks[1].Instrs[0].Global = "tbl"
		}, `"tbl" is a map, reached only through its API`},
	} {
		m := buildSimpleModule()
		tc.mutate(m)
		if err := Verify(m); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Verify = %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
	if err := Verify(buildSimpleModule()); err != nil {
		t.Errorf("unmutated module: %v", err)
	}
}
