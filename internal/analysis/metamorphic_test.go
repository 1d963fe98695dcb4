package analysis_test

import (
	"fmt"
	"math/rand"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"clara/internal/analysis"
	"clara/internal/click"
	"clara/internal/ir"
	"clara/internal/synth"
)

// uniqueSrcModules lowers the benchmark's 300 unique-src programs: the
// Table 2 corpus profile, seeds 1000003 onward.
func uniqueSrcModules(t testing.TB) []*ir.Module {
	t.Helper()
	table2, err := click.Modules(click.Table2Order)
	if err != nil {
		t.Fatal(err)
	}
	prof := synth.ProfileFromModules(table2)
	mods := make([]*ir.Module, 300)
	for p := range mods {
		mods[p] = lowerSrc(t, fmt.Sprintf("u%d", p), synth.Generate(synth.Config{Profile: prof, Seed: 1000003 + int64(p)}))
	}
	return mods
}

// renumbering records, per function, the old number of every new block
// and slot index.
type renumbering struct{ oldBlock, oldSlot []int }

// permuteModule returns a deep copy of m in which the handler's
// non-entry blocks are shuffled and its stack slots renumbered, both by
// permutations seeded from seed. Control flow, operands and positions are
// otherwise untouched, so any analysis fact must survive the renaming.
func permuteModule(m *ir.Module, seed int64) (*ir.Module, map[string]renumbering) {
	rng := rand.New(rand.NewSource(seed))
	out := &ir.Module{Name: m.Name, Globals: m.Globals}
	maps := map[string]renumbering{}
	f := m.Func
	n := len(f.Blocks)
	oldBlock, newBlock := make([]int, n), make([]int, n)
	rest := rng.Perm(n - 1)
	for i := 1; i < n; i++ {
		oldBlock[i] = rest[i-1] + 1
		newBlock[oldBlock[i]] = i
	}
	oldSlot := rng.Perm(f.NSlots)
	newSlot := make([]int, f.NSlots)
	for s, o := range oldSlot {
		newSlot[o] = s
	}
	nf := &ir.Func{Name: f.Name, Ret: f.Ret, NumVals: f.NumVals, NSlots: f.NSlots}
	for i := 0; i < n; i++ {
		b := f.Blocks[oldBlock[i]]
		nb := &ir.Block{Index: i, Name: b.Name}
		for _, in := range b.Instrs {
			ni := *in
			ni.Args = append([]ir.Value(nil), in.Args...)
			switch ni.Op {
			case ir.OpLLoad, ir.OpLStore:
				ni.Slot = newSlot[ni.Slot]
			case ir.OpBr:
				ni.True = newBlock[ni.True]
			case ir.OpCondBr:
				ni.True, ni.False = newBlock[ni.True], newBlock[ni.False]
			}
			nb.Instrs = append(nb.Instrs, &ni)
		}
		nf.Blocks = append(nf.Blocks, nb)
	}
	out.Func = nf
	maps[f.Name] = renumbering{oldBlock: oldBlock, oldSlot: oldSlot}
	return out, maps
}

var (
	blockRef = regexp.MustCompile(`\bb(\d+)\b`)
	slotRef  = regexp.MustCompile(`\bslot (\d+)\b`)
)

// mapBack rewrites the block and slot numbers diagnostics name from a
// permuted module's numbering to the original's.
func mapBack(ds []analysis.Diagnostic, maps map[string]renumbering) []analysis.Diagnostic {
	out := make([]analysis.Diagnostic, len(ds))
	for i, d := range ds {
		r := maps[d.Fn]
		d.Msg = blockRef.ReplaceAllStringFunc(d.Msg, func(s string) string {
			n, _ := strconv.Atoi(s[1:])
			return "b" + strconv.Itoa(r.oldBlock[n])
		})
		d.Msg = slotRef.ReplaceAllStringFunc(d.Msg, func(s string) string {
			n, _ := strconv.Atoi(s[len("slot "):])
			return "slot " + strconv.Itoa(r.oldSlot[n])
		})
		out[i] = d
	}
	analysis.SortDiagnostics(out)
	return out
}

// profileLines renders a state profile as a sorted multiset of lines:
// loops at one position may list in any order.
func profileLines(sp *analysis.StateProfile) []string {
	lines := strings.Split(sp.Render(), "\n")
	sort.Strings(lines)
	return lines
}

// TestAnalyzeMetamorphic renames what no analysis fact may depend on:
// over the 26 library elements and the 300 unique-src programs, shuffling
// non-entry blocks and renumbering slots must leave the diagnostics (with
// block and slot numbers mapped back) and the state profile unchanged.
func TestAnalyzeMetamorphic(t *testing.T) {
	mods := append(libraryModules(t), uniqueSrcModules(t)...)
	cfg := analysis.DefaultConfig()
	for i, m := range mods {
		ds, sp := analysis.Analyze(m, cfg)
		for seed := int64(1); seed <= 2; seed++ {
			pm, maps := permuteModule(m, int64(i)*7919+seed)
			if err := ir.Verify(pm); err != nil {
				t.Fatalf("%s: permuted module fails verification: %v", m.Name, err)
			}
			pds, psp := analysis.Analyze(pm, cfg)
			if got, want := analysis.Render(mapBack(pds, maps)), analysis.Render(ds); got != want {
				t.Errorf("%s seed %d: diagnostics changed under renumbering\n got:\n%s\nwant:\n%s", m.Name, seed, got, want)
			}
			if got, want := strings.Join(profileLines(psp), "\n"), strings.Join(profileLines(sp), "\n"); got != want {
				t.Errorf("%s seed %d: state profile changed under renumbering\n got:\n%s\nwant:\n%s", m.Name, seed, got, want)
			}
		}
	}
}
