package lang

import (
	"fmt"
	"strings"

	"clara/internal/ir"
)

// Compile parses and lowers NFC source to an IR module. Mirroring the
// paper's program-preparation step (§3.1): user-defined subroutines that do
// not depend on the host framework are inlined into the packet handler, and
// local variables remain explicit stack-slot traffic (optimizations are the
// NIC compiler's job, not the frontend's).
func Compile(name, src string) (*ir.Module, error) {
	f, err := Parse(name, src)
	if err != nil {
		return nil, err
	}
	return Lower(f)
}

// Lower type-checks a parsed file and lowers it to IR.
func Lower(f *File) (*ir.Module, error) {
	lo := &lowerer{
		file:    f,
		funcs:   make(map[string]*FuncDecl),
		globals: make(map[string]*ir.Global),
	}
	m := &ir.Module{Name: f.Name}
	for _, g := range f.Globals {
		if lo.globals[g.Name] != nil {
			return nil, fmt.Errorf("%s:%d: global %q redeclared", f.Name, g.Line, g.Name)
		}
		if g.Kind != ir.GScalar && g.Len <= 0 {
			return nil, fmt.Errorf("%s:%d: global %q must have positive capacity", f.Name, g.Line, g.Name)
		}
		// A global's name outlives the module in what is keyed by it (the
		// state profile a fleet's module store keeps), so it gets bytes of
		// its own: the token is a slice of src, and would keep all of it.
		ig := &ir.Global{Name: strings.Clone(g.Name), Kind: g.Kind, Elem: g.Elem, Key: g.Key, Len: g.Len}
		m.Globals = append(m.Globals, ig)
		lo.globals[g.Name] = ig
	}
	var handler *FuncDecl
	for _, fn := range f.Funcs {
		if lo.funcs[fn.Name] != nil {
			return nil, fmt.Errorf("%s:%d: func %q redeclared", f.Name, fn.Line, fn.Name)
		}
		if _, ok := ir.LookupAPI(fn.Name); ok {
			return nil, fmt.Errorf("%s:%d: func %q shadows a framework API", f.Name, fn.Line, fn.Name)
		}
		lo.funcs[fn.Name] = fn
		if fn.Name == ir.HandlerName {
			handler = fn
		}
	}
	if handler == nil {
		return nil, fmt.Errorf("%s: element has no %q function", f.Name, ir.HandlerName)
	}
	if len(handler.Params) != 0 || handler.Ret != ir.Void {
		return nil, fmt.Errorf("%s:%d: %q must be 'void %s()'", f.Name, handler.Line, ir.HandlerName, ir.HandlerName)
	}

	lo.b = ir.NewBuilder(ir.HandlerName, ir.Void)
	lo.pushScope()
	if err := lo.lowerBlock(handler.Body); err != nil {
		return nil, err
	}
	lo.popScope()
	if !lo.b.Terminated() {
		lo.b.Ret(nil)
	}
	m.Func = lo.b.F
	if err := ir.Verify(m); err != nil {
		return nil, fmt.Errorf("%s: internal error: lowered IR invalid: %w", f.Name, err)
	}
	return m, nil
}

type local struct {
	slot int
	ty   ir.Type
}

type loopCtx struct {
	cont *ir.Block // continue target
	exit *ir.Block // break target
}

type inlineCtx struct {
	fn      *FuncDecl
	retSlot int
	retTy   ir.Type
	exit    *ir.Block
}

type lowerer struct {
	file    *File
	funcs   map[string]*FuncDecl
	globals map[string]*ir.Global
	b       *ir.Builder
	scopes  []map[string]local
	loops   []loopCtx
	inlines []*inlineCtx
	nblk    int
}

func (lo *lowerer) errf(line int, format string, args ...any) error {
	return fmt.Errorf("%s:%d: %s", lo.file.Name, line, fmt.Sprintf(format, args...))
}

// stmtPos returns the source position of a statement node.
func stmtPos(s Stmt) ir.Pos {
	switch st := s.(type) {
	case *VarDecl:
		return ir.Pos{Line: st.Line, Col: st.Col}
	case *AssignStmt:
		return ir.Pos{Line: st.Line, Col: st.Col}
	case *IfStmt:
		return ir.Pos{Line: st.Line, Col: st.Col}
	case *WhileStmt:
		return ir.Pos{Line: st.Line, Col: st.Col}
	case *ForStmt:
		return ir.Pos{Line: st.Line, Col: st.Col}
	case *ReturnStmt:
		return ir.Pos{Line: st.Line, Col: st.Col}
	case *BreakStmt:
		return ir.Pos{Line: st.Line, Col: st.Col}
	case *ContinueStmt:
		return ir.Pos{Line: st.Line, Col: st.Col}
	case *ExprStmt:
		return ir.Pos{Line: st.Line, Col: st.Col}
	}
	return ir.Pos{}
}

// exprPos returns the source position of an expression node.
func exprPos(e Expr) ir.Pos {
	switch x := e.(type) {
	case *IntLit:
		return ir.Pos{Line: x.Line, Col: x.Col}
	case *BoolLit:
		return ir.Pos{Line: x.Line, Col: x.Col}
	case *Ident:
		return ir.Pos{Line: x.Line, Col: x.Col}
	case *IndexExpr:
		return ir.Pos{Line: x.Line, Col: x.Col}
	case *CallExpr:
		return ir.Pos{Line: x.Line, Col: x.Col}
	case *CastExpr:
		return ir.Pos{Line: x.Line, Col: x.Col}
	case *UnaryExpr:
		return ir.Pos{Line: x.Line, Col: x.Col}
	case *BinaryExpr:
		return ir.Pos{Line: x.Line, Col: x.Col}
	}
	return ir.Pos{}
}

func (lo *lowerer) pushScope() { lo.scopes = append(lo.scopes, map[string]local{}) }
func (lo *lowerer) popScope()  { lo.scopes = lo.scopes[:len(lo.scopes)-1] }

func (lo *lowerer) lookup(name string) (local, bool) {
	for i := len(lo.scopes) - 1; i >= 0; i-- {
		if v, ok := lo.scopes[i][name]; ok {
			return v, true
		}
	}
	return local{}, false
}

func (lo *lowerer) declare(name string, ty ir.Type) local {
	v := local{slot: lo.b.NewSlot(), ty: ty}
	lo.scopes[len(lo.scopes)-1][name] = v
	return v
}

// newBlock appends a fresh block without moving the insertion point.
func (lo *lowerer) newBlock(kind string) *ir.Block {
	cur := lo.b.Current()
	lo.nblk++
	blk := lo.b.NewBlock(fmt.Sprintf("%s%d", kind, lo.nblk))
	lo.b.SetBlock(cur)
	return blk
}

func (lo *lowerer) lowerBlock(b *BlockStmt) error {
	lo.pushScope()
	defer lo.popScope()
	for _, s := range b.List {
		if lo.b.Terminated() {
			// Dead code after return/break; skip it (keeps lowering simple
			// and matches what -O0 compilers drop anyway).
			return nil
		}
		if err := lo.lowerStmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (lo *lowerer) lowerStmt(s Stmt) error {
	if p := stmtPos(s); p.IsValid() {
		lo.b.At(p)
	}
	switch st := s.(type) {
	case *BlockStmt:
		return lo.lowerBlock(st)

	case *VarDecl:
		if _, exists := lo.scopes[len(lo.scopes)-1][st.Name]; exists {
			return lo.errf(st.Line, "variable %q redeclared", st.Name)
		}
		var init ir.Value
		if st.Init != nil {
			v, err := lo.lowerExpr(st.Init, st.Ty)
			if err != nil {
				return err
			}
			init = lo.convert(st.Ty, v)
		} else {
			init = ir.ConstVal(0, st.Ty)
		}
		v := lo.declare(st.Name, st.Ty)
		lo.b.LStore(v.slot, init)
		return nil

	case *AssignStmt:
		return lo.lowerAssign(st)

	case *IfStmt:
		cond, err := lo.lowerCond(st.Cond)
		if err != nil {
			return err
		}
		curr := lo.b.Current()
		thenB := lo.newBlock("then")
		lo.b.SetBlock(thenB)
		if err := lo.lowerBlock(st.Then); err != nil {
			return err
		}
		thenEnd := lo.b.Current()
		var elseB, elseEnd *ir.Block
		if st.Else != nil {
			elseB = lo.newBlock("else")
			lo.b.SetBlock(elseB)
			if err := lo.lowerBlock(st.Else); err != nil {
				return err
			}
			elseEnd = lo.b.Current()
		}
		// When both arms leave, no path continues past the if: it gets no
		// join block, and the builder stays on the branch, so what follows
		// is dead code and is skipped like code after a return.
		leaves := elseEnd != nil && thenEnd.Terminator() != nil && elseEnd.Terminator() != nil
		var join *ir.Block
		if !leaves {
			join = lo.newBlock("join")
		}
		lo.b.SetBlock(curr)
		lo.b.At(stmtPos(st)) // the branch belongs to the 'if' line
		if elseB != nil {
			lo.b.CondBr(cond, thenB, elseB)
		} else {
			lo.b.CondBr(cond, thenB, join)
		}
		if leaves {
			return nil
		}
		if thenEnd.Terminator() == nil {
			lo.b.SetBlock(thenEnd)
			lo.b.Br(join)
		}
		if elseEnd != nil && elseEnd.Terminator() == nil {
			lo.b.SetBlock(elseEnd)
			lo.b.Br(join)
		}
		lo.b.SetBlock(join)
		return nil

	case *WhileStmt:
		return lo.lowerLoop(lo.newBlock("head"), st.Cond, nil, st.Body)

	case *ForStmt:
		lo.pushScope()
		defer lo.popScope()
		if st.Init != nil {
			if err := lo.lowerStmt(st.Init); err != nil {
				return err
			}
		}
		return lo.lowerLoop(lo.newBlock("head"), st.Cond, st.Post, st.Body)

	case *ReturnStmt:
		if n := len(lo.inlines); n > 0 {
			ic := lo.inlines[n-1]
			if ic.retTy != ir.Void {
				if st.Value == nil {
					return lo.errf(st.Line, "return needs a value in %q", ic.fn.Name)
				}
				v, err := lo.lowerExpr(st.Value, ic.retTy)
				if err != nil {
					return err
				}
				lo.b.LStore(ic.retSlot, lo.convert(ic.retTy, v))
			} else if st.Value != nil {
				return lo.errf(st.Line, "void function %q returns a value", ic.fn.Name)
			}
			lo.b.Br(ic.exit)
			return nil
		}
		if st.Value != nil {
			return lo.errf(st.Line, "%q returns no value", ir.HandlerName)
		}
		lo.b.Ret(nil)
		return nil

	case *BreakStmt:
		if len(lo.loops) == 0 {
			return lo.errf(st.Line, "break outside loop")
		}
		lo.b.Br(lo.loops[len(lo.loops)-1].exit)
		return nil

	case *ContinueStmt:
		if len(lo.loops) == 0 {
			return lo.errf(st.Line, "continue outside loop")
		}
		lo.b.Br(lo.loops[len(lo.loops)-1].cont)
		return nil

	case *ExprStmt:
		_, err := lo.lowerExpr(st.X, ir.Void)
		return err

	default:
		return fmt.Errorf("unhandled statement %T", s)
	}
}

// lowerLoop lowers a while/for loop. Precondition: head was just created and
// the builder is positioned at the block that should fall into head.
func (lo *lowerer) lowerLoop(head *ir.Block, cond Expr, post Stmt, body *BlockStmt) error {
	lo.b.Br(head)
	lo.b.SetBlock(head)

	var condV ir.Value
	if cond != nil {
		v, err := lo.lowerCond(cond)
		if err != nil {
			return err
		}
		condV = v
	}
	condEnd := lo.b.Current()

	bodyB := lo.newBlock("body")
	var postB *ir.Block
	cont := head
	if post != nil {
		postB = lo.newBlock("post")
		cont = postB
	}
	exit := lo.newBlock("exit")

	lo.b.SetBlock(condEnd)
	if cond != nil {
		lo.b.At(exprPos(cond)) // the loop branch belongs to the condition
		lo.b.CondBr(condV, bodyB, exit)
	} else {
		lo.b.Br(bodyB)
	}

	lo.loops = append(lo.loops, loopCtx{cont: cont, exit: exit})
	lo.b.SetBlock(bodyB)
	err := lo.lowerBlock(body)
	lo.loops = lo.loops[:len(lo.loops)-1]
	if err != nil {
		return err
	}
	if !lo.b.Terminated() {
		lo.b.Br(cont)
	}
	// A body that always leaves without continue never reaches the post
	// statement, and a loop without a condition is left only by break: the
	// block nothing reached goes, and with no exit the builder stays on the
	// loop's terminated head, so what follows is skipped as dead code.
	if postB != nil && !lo.dropUnreached(postB) {
		lo.b.SetBlock(postB)
		if err := lo.lowerStmt(post); err != nil {
			return err
		}
		if !lo.b.Terminated() {
			lo.b.Br(head)
		}
	}
	if cond == nil && lo.dropUnreached(exit) {
		lo.b.SetBlock(condEnd)
		return nil
	}
	lo.b.SetBlock(exit)
	return nil
}

// dropUnreached removes blk, which was created ahead of the code that
// could branch to it, if no branch does; later blocks move down an index.
func (lo *lowerer) dropUnreached(blk *ir.Block) bool {
	f, k := lo.b.F, blk.Index
	for _, b := range f.Blocks {
		// A target field a terminator does not use is 0, the entry block,
		// which is never dropped.
		if t := b.Terminator(); t != nil && (t.True == k || t.False == k) {
			return false
		}
	}
	f.Blocks = append(f.Blocks[:k], f.Blocks[k+1:]...)
	for i, b := range f.Blocks {
		b.Index = i
		if t := b.Terminator(); t != nil {
			if t.True > k {
				t.True--
			}
			if t.False > k {
				t.False--
			}
		}
	}
	return true
}

func (lo *lowerer) lowerAssign(st *AssignStmt) error {
	t := st.Target
	// Local variable.
	if v, ok := lo.lookup(t.Name); ok {
		if t.Index != nil {
			return lo.errf(t.Line, "%q is not an array", t.Name)
		}
		val, err := lo.assignValue(st, v.ty, func() ir.Value { return lo.b.LLoad(v.slot, v.ty) })
		if err != nil {
			return err
		}
		lo.b.LStore(v.slot, val)
		return nil
	}
	// Global.
	g, ok := lo.globals[t.Name]
	if !ok {
		return lo.errf(t.Line, "undefined variable %q", t.Name)
	}
	switch g.Kind {
	case ir.GScalar:
		if t.Index != nil {
			return lo.errf(t.Line, "%q is not an array", t.Name)
		}
		val, err := lo.assignValue(st, g.Elem, func() ir.Value { return lo.b.GLoad(g.Name, g.Elem, nil) })
		if err != nil {
			return err
		}
		lo.b.GStore(g.Name, val, nil)
		return nil
	case ir.GArray:
		if t.Index == nil {
			return lo.errf(t.Line, "array %q needs an index", t.Name)
		}
		idx, err := lo.lowerExpr(t.Index, ir.U32)
		if err != nil {
			return err
		}
		idx = lo.convert(ir.U32, idx)
		val, err := lo.assignValue(st, g.Elem, func() ir.Value { return lo.b.GLoad(g.Name, g.Elem, &idx) })
		if err != nil {
			return err
		}
		lo.b.GStore(g.Name, val, &idx)
		return nil
	default:
		return lo.errf(t.Line, "cannot assign to %s %q; use its API", g.Kind, t.Name)
	}
}

// assignValue computes the right-hand side of an assignment, applying the
// compound operator if present.
func (lo *lowerer) assignValue(st *AssignStmt, ty ir.Type, load func() ir.Value) (ir.Value, error) {
	rhs, err := lo.lowerExpr(st.Value, ty)
	if err != nil {
		return ir.Value{}, err
	}
	rhs = lo.convert(ty, rhs)
	if st.Op == "" {
		return rhs, nil
	}
	op, ok := binOps[st.Op]
	if !ok {
		return ir.Value{}, lo.errf(st.Line, "bad compound operator %q", st.Op)
	}
	cur := load()
	return lo.b.Bin(op, ty, cur, rhs), nil
}

var binOps = map[string]ir.Op{
	"+": ir.OpAdd, "-": ir.OpSub, "*": ir.OpMul, "/": ir.OpUDiv, "%": ir.OpURem,
	"&": ir.OpAnd, "|": ir.OpOr, "^": ir.OpXor, "<<": ir.OpShl, ">>": ir.OpLShr,
}

var cmpOps = map[string]ir.Pred{
	"==": ir.PredEQ, "!=": ir.PredNE,
	"<": ir.PredULT, "<=": ir.PredULE, ">": ir.PredUGT, ">=": ir.PredUGE,
}

// convert coerces v to ty (explicit zext/trunc instructions, as in the IR
// the host compiler would emit).
func (lo *lowerer) convert(ty ir.Type, v ir.Value) ir.Value {
	if v.Ty == ty || ty == ir.Void {
		return v
	}
	if v.Kind == ir.VConst {
		// Constants convert for free; mask to the destination width.
		c := v.Const
		if ty != ir.U64 && ty != ir.Void {
			c &= (1 << ty.Bits()) - 1
		}
		return ir.ConstVal(c, ty)
	}
	return lo.b.Convert(ty, v)
}

// lowerCond lowers an expression in boolean context; non-bool integers are
// compared against zero.
func (lo *lowerer) lowerCond(e Expr) (ir.Value, error) {
	v, err := lo.lowerExpr(e, ir.Bool)
	if err != nil {
		return ir.Value{}, err
	}
	if v.Ty == ir.Bool {
		return v, nil
	}
	return lo.b.ICmp(ir.PredNE, v, ir.ConstVal(0, v.Ty)), nil
}

// lowerExpr lowers an expression. hint is the preferred result type for
// otherwise-untyped literals (Void means "no preference").
func (lo *lowerer) lowerExpr(e Expr, hint ir.Type) (ir.Value, error) {
	if p := exprPos(e); p.IsValid() {
		lo.b.At(p)
	}
	switch x := e.(type) {
	case *IntLit:
		ty := hint
		if ty == ir.Void || ty == ir.Bool {
			ty = ir.U32
			if x.Val > 0xffffffff {
				ty = ir.U64
			}
		}
		return ir.ConstVal(int64(x.Val), ty), nil

	case *BoolLit:
		c := int64(0)
		if x.Val {
			c = 1
		}
		return ir.ConstVal(c, ir.Bool), nil

	case *Ident:
		if v, ok := lo.lookup(x.Name); ok {
			return lo.b.LLoad(v.slot, v.ty), nil
		}
		if g, ok := lo.globals[x.Name]; ok {
			if g.Kind != ir.GScalar {
				return ir.Value{}, lo.errf(x.Line, "%q is not a scalar", x.Name)
			}
			return lo.b.GLoad(g.Name, g.Elem, nil), nil
		}
		return ir.Value{}, lo.errf(x.Line, "undefined variable %q", x.Name)

	case *IndexExpr:
		g, ok := lo.globals[x.Name]
		if !ok || g.Kind != ir.GArray {
			return ir.Value{}, lo.errf(x.Line, "%q is not a global array", x.Name)
		}
		idx, err := lo.lowerExpr(x.Index, ir.U32)
		if err != nil {
			return ir.Value{}, err
		}
		idx = lo.convert(ir.U32, idx)
		return lo.b.GLoad(g.Name, g.Elem, &idx), nil

	case *CastExpr:
		v, err := lo.lowerExpr(x.X, x.Ty)
		if err != nil {
			return ir.Value{}, err
		}
		return lo.convert(x.Ty, v), nil

	case *UnaryExpr:
		switch x.Op {
		case "!":
			v, err := lo.lowerCond(x.X)
			if err != nil {
				return ir.Value{}, err
			}
			return lo.b.Bin(ir.OpXor, ir.Bool, v, ir.ConstVal(1, ir.Bool)), nil
		case "~":
			v, err := lo.lowerExpr(x.X, hint)
			if err != nil {
				return ir.Value{}, err
			}
			if v.Ty == ir.Bool {
				return ir.Value{}, lo.errf(x.Line, "~ needs an integer operand")
			}
			return lo.b.Not(v.Ty, v), nil
		case "-":
			v, err := lo.lowerExpr(x.X, hint)
			if err != nil {
				return ir.Value{}, err
			}
			return lo.b.Bin(ir.OpSub, v.Ty, ir.ConstVal(0, v.Ty), v), nil
		}
		return ir.Value{}, lo.errf(x.Line, "bad unary operator %q", x.Op)

	case *BinaryExpr:
		return lo.lowerBinary(x, hint)

	case *CallExpr:
		return lo.lowerCall(x, hint)

	default:
		return ir.Value{}, fmt.Errorf("unhandled expression %T", e)
	}
}

func (lo *lowerer) lowerBinary(x *BinaryExpr, hint ir.Type) (ir.Value, error) {
	// Logical operators: evaluated on booleans. NFC does not short-circuit
	// (both operands are evaluated), which keeps expression lowering free
	// of hidden control flow; NF conditions are side-effect free in
	// practice.
	if x.Op == "&&" || x.Op == "||" {
		a, err := lo.lowerCond(x.X)
		if err != nil {
			return ir.Value{}, err
		}
		b, err := lo.lowerCond(x.Y)
		if err != nil {
			return ir.Value{}, err
		}
		op := ir.OpAnd
		if x.Op == "||" {
			op = ir.OpOr
		}
		return lo.b.Bin(op, ir.Bool, a, b), nil
	}

	if p, ok := cmpOps[x.Op]; ok {
		a, b, err := lo.lowerOperands(x, ir.Void)
		if err != nil {
			return ir.Value{}, err
		}
		a, b = lo.unify(a, b)
		return lo.b.ICmp(p, a, b), nil
	}

	op, ok := binOps[x.Op]
	if !ok {
		return ir.Value{}, lo.errf(x.Line, "bad binary operator %q", x.Op)
	}
	if op == ir.OpShl || op == ir.OpLShr {
		a, err := lo.lowerExpr(x.X, hint)
		if err != nil {
			return ir.Value{}, err
		}
		if a.Ty == ir.Bool {
			a = lo.convert(ir.U32, a)
		}
		b, err := lo.lowerExpr(x.Y, ir.U32)
		if err != nil {
			return ir.Value{}, err
		}
		b = lo.convert(a.Ty, b)
		return lo.b.Bin(op, a.Ty, a, b), nil
	}
	a, b, err := lo.lowerOperands(x, hint)
	if err != nil {
		return ir.Value{}, err
	}
	a, b = lo.unify(a, b)
	return lo.b.Bin(op, a.Ty, a, b), nil
}

// lowerOperands lowers both operands, letting a typed side give literal
// operands their type.
func (lo *lowerer) lowerOperands(x *BinaryExpr, hint ir.Type) (ir.Value, ir.Value, error) {
	_, xLit := x.X.(*IntLit)
	_, yLit := x.Y.(*IntLit)
	if xLit && !yLit {
		b, err := lo.lowerExpr(x.Y, hint)
		if err != nil {
			return ir.Value{}, ir.Value{}, err
		}
		a, err := lo.lowerExpr(x.X, b.Ty)
		if err != nil {
			return ir.Value{}, ir.Value{}, err
		}
		return a, b, nil
	}
	a, err := lo.lowerExpr(x.X, hint)
	if err != nil {
		return ir.Value{}, ir.Value{}, err
	}
	bHint := a.Ty
	if bHint == ir.Bool {
		bHint = hint
	}
	b, err := lo.lowerExpr(x.Y, bHint)
	if err != nil {
		return ir.Value{}, ir.Value{}, err
	}
	return a, b, nil
}

// unify widens the narrower operand (bools widen to the other side's type,
// or u32 when both are bool).
func (lo *lowerer) unify(a, b ir.Value) (ir.Value, ir.Value) {
	at, bt := a.Ty, b.Ty
	if at == ir.Bool && bt == ir.Bool {
		return a, b
	}
	if at == ir.Bool {
		return lo.convert(bt, a), b
	}
	if bt == ir.Bool {
		return a, lo.convert(at, b)
	}
	if at.Bits() > bt.Bits() {
		return a, lo.convert(at, b)
	}
	if bt.Bits() > at.Bits() {
		return lo.convert(bt, a), b
	}
	return a, b
}

func (lo *lowerer) lowerCall(x *CallExpr, hint ir.Type) (ir.Value, error) {
	if api, ok := ir.LookupAPI(x.Name); ok {
		return lo.lowerIntrinsic(x, &ir.APIs[api])
	}
	fn, ok := lo.funcs[x.Name]
	if !ok {
		return ir.Value{}, lo.errf(x.Line, "undefined function %q", x.Name)
	}
	return lo.inlineCall(x, fn)
}

func (lo *lowerer) lowerIntrinsic(x *CallExpr, intr *ir.APIInfo) (ir.Value, error) {
	args := x.Args
	global := ""
	if intr.State != ir.GScalar {
		if len(args) == 0 {
			return ir.Value{}, lo.errf(x.Line, "%s needs a state argument", intr.Name)
		}
		id, ok := args[0].(*Ident)
		if !ok {
			return ir.Value{}, lo.errf(x.Line, "%s: first argument must name a stateful structure", intr.Name)
		}
		if g, ok := lo.globals[id.Name]; !ok || g.Kind != intr.State {
			return ir.Value{}, lo.errf(x.Line, "%s: %q is not a %s", intr.Name, id.Name, intr.State)
		}
		global = id.Name
		args = args[1:]
	}
	if len(args) != len(intr.Params) {
		return ir.Value{}, lo.errf(x.Line, "%s expects %d argument(s), got %d", intr.Name, len(intr.Params), len(args))
	}
	vals := make([]ir.Value, len(args))
	for i, a := range args {
		v, err := lo.lowerExpr(a, intr.Params[i])
		if err != nil {
			return ir.Value{}, err
		}
		vals[i] = lo.convert(intr.Params[i], v)
	}
	lo.b.At(exprPos(x)) // the call instruction belongs to the call site
	return lo.b.Call(intr.Name, global, intr.Ret, vals...), nil
}

// RecursionError is Lower's error for a call that re-enters a function
// being inlined: NFC has no recursion, as baremetal NIC dialects have none.
type RecursionError struct {
	File string
	Line int       // the line of the call
	Func *FuncDecl // the function it re-enters
}

func (e *RecursionError) Error() string {
	return fmt.Sprintf("%s:%d: recursive call to %q is not supported", e.File, e.Line, e.Func.Name)
}

// inlineCall lowers a user-function call by inlining its body, binding
// parameters to fresh stack slots and routing returns through a shared exit
// block. Recursion is rejected with a *RecursionError.
func (lo *lowerer) inlineCall(x *CallExpr, fn *FuncDecl) (ir.Value, error) {
	for _, ic := range lo.inlines {
		if ic.fn == fn {
			return ir.Value{}, &RecursionError{File: lo.file.Name, Line: x.Line, Func: fn}
		}
	}
	if len(x.Args) != len(fn.Params) {
		return ir.Value{}, lo.errf(x.Line, "%s expects %d argument(s), got %d", fn.Name, len(fn.Params), len(x.Args))
	}

	// Bind arguments.
	lo.pushScope()
	defer lo.popScope()
	// Evaluate all arguments before declaring parameters so that an
	// argument expression cannot see a half-bound parameter scope.
	vals := make([]ir.Value, len(x.Args))
	for i, a := range x.Args {
		v, err := lo.lowerExpr(a, fn.Params[i].Ty)
		if err != nil {
			return ir.Value{}, err
		}
		vals[i] = lo.convert(fn.Params[i].Ty, v)
	}
	for i, p := range fn.Params {
		pv := lo.declare(p.Name, p.Ty)
		lo.b.LStore(pv.slot, vals[i])
	}

	ic := &inlineCtx{fn: fn, retTy: fn.Ret, exit: lo.newBlock("inl_exit")}
	if fn.Ret != ir.Void {
		ic.retSlot = lo.b.NewSlot()
		lo.b.LStore(ic.retSlot, ir.ConstVal(0, fn.Ret))
	}

	// The parameter scope must not leak the caller's locals into the
	// inlined body: NFC functions only see their own parameters and
	// globals. Temporarily mask outer scopes.
	saved := lo.scopes
	lo.scopes = []map[string]local{saved[len(saved)-1]}

	lo.inlines = append(lo.inlines, ic)
	err := lo.lowerBlock(fn.Body)
	lo.inlines = lo.inlines[:len(lo.inlines)-1]
	lo.scopes = saved
	if err != nil {
		return ir.Value{}, err
	}
	if !lo.b.Terminated() {
		if fn.Ret != ir.Void {
			return ir.Value{}, lo.errf(fn.Line, "function %q can fall off the end without returning", fn.Name)
		}
		lo.b.Br(ic.exit)
	}
	lo.b.SetBlock(ic.exit)
	if fn.Ret != ir.Void {
		return lo.b.LLoad(ic.retSlot, fn.Ret), nil
	}
	return ir.Value{}, nil
}
