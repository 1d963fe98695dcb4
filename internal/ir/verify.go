package ir

import "fmt"

// Verify checks structural well-formedness of a module: its one function
// is the handler, every block is terminated, branch targets are
// in range, operand IDs refer to defined values, and slot and global
// references are valid. It returns the first violation found.
func Verify(m *Module) error {
	if m.Func == nil || m.Func.Name != HandlerName {
		return fmt.Errorf("module %s: want one function, %q", m.Name, HandlerName)
	}
	if err := verifyFunc(m, m.Func); err != nil {
		return fmt.Errorf("func %s: %w", HandlerName, err)
	}
	return nil
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
			switch in.Op {
			case OpLLoad, OpLStore:
				if in.Slot < 0 || in.Slot >= f.NSlots {
					return fmt.Errorf("b%d: %s: bad slot", bi, in)
				}
			case OpGLoad, OpGStore:
				if m.Global(in.Global) == nil {
					return fmt.Errorf("b%d: %s: unknown global %q", bi, in, in.Global)
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
