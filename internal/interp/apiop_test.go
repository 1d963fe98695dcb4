package interp

import (
	"testing"

	"clara/internal/ir"
)

// TestEveryAPICompilesToACallOp compiles a call to every framework API and
// holds it to an op of the call class. An API missing from apiOps would
// read as xAdd, and both loops would run it as an add and agree, so
// TestEveryAPIRuns cannot see it; this test fails on the op.
func TestEveryAPICompilesToACallOp(t *testing.T) {
	state := map[ir.GlobalKind]string{ir.GMap: "tbl", ir.GVec: "v"}
	for api, a := range ir.APIs {
		b := ir.NewBuilder(ir.HandlerName, ir.Void)
		args := make([]ir.Value, len(a.Params))
		for i, ty := range a.Params {
			args[i] = ir.ConstVal(1, ty)
		}
		b.Call(a.Name, state[a.State], a.Ret, args...)
		b.Ret(nil)
		mod := &ir.Module{Name: "api_" + a.Name, Func: b.F, Globals: []*ir.Global{
			{Name: "tbl", Kind: ir.GMap, Key: ir.U64, Elem: ir.U64, Len: 16},
			{Name: "v", Kind: ir.GVec, Elem: ir.U64, Len: 8},
		}}
		prog, err := compileModule(mod)
		if err != nil {
			t.Errorf("%s: %v", a.Name, err)
			continue
		}
		in := prog.blocks[0].instrs[0]
		if in.op < xCall || in.op > xPktSet || in.api != ir.API(api) {
			t.Errorf("%s compiles to op %d, API %d; want a call-class op, API %d", a.Name, in.op, in.api, api)
		}
	}
}
