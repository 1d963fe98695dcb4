package ir

import "fmt"

// Verify is the one statement of module well-formedness: what the
// frontend's lowering guarantees, and all that the interpreter and the
// analyses rely on instead of re-checking. The module's one function is the
// handler; every map, vector and array global has a positive length; every
// block ends in a terminator, its only one, whose targets are blocks of the
// function; every opcode is valid, and no instruction has more operands
// than its opcode takes; value, operand and slot numbers are in range and
// no value is defined twice; a global access names a scalar or array
// global; and a call names an APIs entry, with that entry's arity and a
// global of the entry's State kind, or none when the entry is stateless.
// It returns the first violation found.
func Verify(m *Module) error {
	if m.Func == nil || m.Func.Name != HandlerName {
		return fmt.Errorf("module %s: want one function, %q", m.Name, HandlerName)
	}
	for _, g := range m.Globals {
		if g.Kind != GScalar && g.Len <= 0 {
			return fmt.Errorf("global %q: %s of length %d", g.Name, g.Kind, g.Len)
		}
	}
	if err := verifyFunc(m, m.Func); err != nil {
		return fmt.Errorf("func %s: %w", HandlerName, err)
	}
	return nil
}

// maxArgs is each opcode's operand limit; a call's is its API's arity.
var maxArgs = [...]int{
	OpAdd: 2, OpSub: 2, OpMul: 2, OpUDiv: 2, OpURem: 2, OpAnd: 2, OpOr: 2,
	OpXor: 2, OpShl: 2, OpLShr: 2, OpICmp: 2, OpZExt: 1, OpTrunc: 1, OpNot: 1,
	OpLLoad: 0, OpLStore: 1, OpGLoad: 1, OpGStore: 2,
	OpBr: 0, OpCondBr: 1, OpRet: 1,
}

func verifyFunc(m *Module, f *Func) error {
	if len(f.Blocks) == 0 {
		return fmt.Errorf("no blocks")
	}
	defined := make([]bool, f.NumVals)
	for bi, b := range f.Blocks {
		if b.Index != bi {
			return fmt.Errorf("block %d has index %d", bi, b.Index)
		}
		t := b.Terminator()
		if t == nil {
			return fmt.Errorf("block b%d (%s) not terminated", bi, b.Name)
		}
		for ii, in := range b.Instrs {
			if in.Op == OpInvalid || in.Op > OpRet {
				return fmt.Errorf("b%d: invalid opcode %s", bi, in.Op)
			}
			if in.Op.IsTerminator() && ii != len(b.Instrs)-1 {
				return fmt.Errorf("b%d: terminator %s not last", bi, in)
			}
			if in.ID >= 0 {
				if in.ID >= f.NumVals {
					return fmt.Errorf("b%d: value %%%d out of range", bi, in.ID)
				}
				if defined[in.ID] {
					return fmt.Errorf("b%d: value %%%d redefined", bi, in.ID)
				}
				defined[in.ID] = true
			}
			for _, a := range in.Args {
				switch a.Kind {
				case VInstr:
					if a.ID < 0 || a.ID >= f.NumVals {
						return fmt.Errorf("b%d: %s: bad operand %%%d", bi, in, a.ID)
					}
				case VConst:
				default:
					return fmt.Errorf("b%d: %s: invalid operand kind", bi, in)
				}
			}
			if in.Op == OpCall {
				if err := verifyCall(m, in); err != nil {
					return fmt.Errorf("b%d: %s: %w", bi, in, err)
				}
			} else if len(in.Args) > maxArgs[in.Op] {
				return fmt.Errorf("b%d: %s: %d operands, want at most %d", bi, in, len(in.Args), maxArgs[in.Op])
			}
			switch in.Op {
			case OpLLoad, OpLStore:
				if in.Slot < 0 || in.Slot >= f.NSlots {
					return fmt.Errorf("b%d: %s: bad slot", bi, in)
				}
			case OpGLoad, OpGStore:
				g := m.Global(in.Global)
				if g == nil {
					return fmt.Errorf("b%d: %s: unknown global %q", bi, in, in.Global)
				}
				if g.Kind != GScalar && g.Kind != GArray {
					return fmt.Errorf("b%d: %s: %q is a %s, reached only through its API", bi, in, in.Global, g.Kind)
				}
			case OpBr:
				if in.True < 0 || in.True >= len(f.Blocks) {
					return fmt.Errorf("b%d: br target out of range", bi)
				}
			case OpCondBr:
				if in.True < 0 || in.True >= len(f.Blocks) ||
					in.False < 0 || in.False >= len(f.Blocks) {
					return fmt.Errorf("b%d: cbr target out of range", bi)
				}
				if len(in.Args) != 1 {
					return fmt.Errorf("b%d: cbr needs 1 operand", bi)
				}
			case OpRet:
				if f.Ret != Void && len(in.Args) != 1 {
					return fmt.Errorf("b%d: ret needs a value", bi)
				}
			}
		}
	}
	return nil
}

// verifyCall checks a call against the API catalog.
func verifyCall(m *Module, in *Instr) error {
	api, ok := LookupAPI(in.Callee)
	if !ok {
		return fmt.Errorf("unknown framework API %q", in.Callee)
	}
	a := &APIs[api]
	if len(in.Args) != len(a.Params) {
		return fmt.Errorf("%d operands, want %d", len(in.Args), len(a.Params))
	}
	if a.State == GScalar {
		if in.Global != "" {
			return fmt.Errorf("%s names global %q but takes none", a.Name, in.Global)
		}
		return nil
	}
	if g := m.Global(in.Global); g == nil || g.Kind != a.State {
		return fmt.Errorf("%q is not a %s", in.Global, a.State)
	}
	return nil
}
