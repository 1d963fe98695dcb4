package ir

import (
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
