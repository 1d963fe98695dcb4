package analysis_test

import (
	"errors"
	"testing"

	"clara/internal/analysis"
	"clara/internal/ir"
	"clara/internal/lang"
)

// TestLoweringGuarantees pins what the linter relies on lowering for, over
// the 26 library elements and the 300 unique-src programs: every module,
// and SimplifyModule's rewrite of it, passes ir.Verify (so every call names
// a framework API), and no local load can read its slot's undefined entry
// value (lowering zero-initializes every declaration and parameter). No
// rule checks either on the IR.
func TestLoweringGuarantees(t *testing.T) {
	for _, m := range append(libraryModules(t), uniqueSrcModules(t)...) {
		if err := ir.Verify(m); err != nil {
			t.Errorf("%s: %v", m.Name, err)
			continue
		}
		sm, _ := analysis.SimplifyModule(m)
		if err := ir.Verify(sm); err != nil {
			t.Errorf("%s simplified: %v", m.Name, err)
		}
		for _, b := range m.Func.Blocks {
			for _, in := range b.Instrs {
				if in.Op != ir.OpLLoad {
					continue
				}
				if _, uninit := analysis.LoadDefs(m.Func, in.ID); uninit {
					t.Errorf("%s: b%d: %s may read slot %d before any store", m.Name, b.Index, in, in.Slot)
				}
			}
		}
	}
}

// TestLintRecursionIsCompileRefusal holds the recursion rule to the
// frontend: LintSource reports recursion exactly when lang.Compile refuses
// the source for it, once, at the declaration of the function re-entered. A
// recursive function the handler never calls is never lowered: that source
// compiles and lints clean.
func TestLintRecursionIsCompileRefusal(t *testing.T) {
	for _, tc := range []struct {
		name, src string
		fn        string // the re-entered function; "" for none
		line      int    // its declaration's line
	}{
		{"direct", `
u32 fact(u32 n) {
	if (n < 2) { return 1; }
	return n * fact(n - 1);
}
void handle() {
	pkt_send(fact(u32(pkt_len())));
}
`, "fact", 2},
		{"mutual", `
u32 even(u32 n) {
	if (n == 0) { return 1; }
	return odd(n - 1);
}
u32 odd(u32 n) {
	if (n == 0) { return 0; }
	return even(n - 1);
}
void handle() {
	pkt_send(even(u32(pkt_len())));
}
`, "even", 2},
		{"uncalled", `
u32 fact(u32 n) {
	if (n < 2) { return 1; }
	return n * fact(n - 1);
}
void handle() {
	pkt_send(0);
}
`, "", 0},
	} {
		_, cerr := lang.Compile(tc.name, tc.src)
		var rec *lang.RecursionError
		if refused := errors.As(cerr, &rec); refused != (tc.fn != "") || !refused && cerr != nil {
			t.Errorf("%s: Compile error %v, want a recursion refusal: %v", tc.name, cerr, tc.fn != "")
			continue
		}
		ds, err := analysis.LintSource(tc.name, tc.src, analysis.DefaultConfig())
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if tc.fn == "" {
			if len(ds) != 0 {
				t.Errorf("%s: want no findings, got %v", tc.name, ds)
			}
			continue
		}
		if len(ds) != 1 || ds[0].Rule != analysis.RuleRecursion || ds[0].Fn != tc.fn || ds[0].Line != tc.line {
			t.Errorf("%s: findings %v, want one recursion finding for %s at line %d", tc.name, ds, tc.fn, tc.line)
		}
	}
}
