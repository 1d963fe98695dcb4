package analysis_test

import (
	"reflect"
	"testing"

	"clara/internal/analysis"
	"clara/internal/click"
	"clara/internal/ir"
)

// libraryModules lowers every library element.
func libraryModules(t testing.TB) []*ir.Module {
	t.Helper()
	var mods []*ir.Module
	for _, e := range click.Library() {
		m, err := e.Module()
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		mods = append(mods, m)
	}
	return mods
}

// TestAnalyzeMatchesSeparatePasses holds the one-pass entry to the two
// passes it replaced in the job pipeline: over the 26 library elements and
// the benchmark's 300 unique-src programs, Analyze must return exactly what
// LintModule and ComputeStateProfile return on their own call graphs.
func TestAnalyzeMatchesSeparatePasses(t *testing.T) {
	mods := append(libraryModules(t), uniqueSrcModules(t)...)
	cfg := analysis.DefaultConfig()
	for i, m := range mods {
		ds, sp := analysis.Analyze(m, cfg)
		if want := analysis.LintModule(m, cfg); !reflect.DeepEqual(ds, want) {
			t.Errorf("module %d (%s): diagnostics differ\n got %v\nwant %v", i, m.Name, ds, want)
		}
		if want := analysis.ComputeStateProfile(m); !reflect.DeepEqual(sp, want) {
			t.Errorf("module %d (%s): state profile differs\n got %+v\nwant %+v", i, m.Name, sp, want)
		}
	}
}

// TestOneSolvePerFunction: a module is one function, the handler, whose
// slot SSA is built once; the interval and taint fixpoints both read it.
func TestOneSolvePerFunction(t *testing.T) {
	for _, m := range append(libraryModules(t), uniqueSrcModules(t)...) {
		if !analysis.SharesSSA(analysis.NewFacts(m)) {
			t.Errorf("%s: the interval and taint fixpoints read different slot SSAs", m.Name)
		}
	}
}

// TestAnalyzeAllocations pins "every fact once" as an absolute allocation
// count summed over the library. The two separate passes made 72 857
// allocations at the commit that introduced Analyze; one shared call graph
// made 48 770; one value fixpoint instead of an interval and a constant
// one made 43 604; and solving every analysis sparsely over one slot SSA
// per function instead of cloning a per-slot vector per block visit made
// 6 921; analyzing the module's one function directly, with no call graph
// or per-function summaries, makes 6 389. The ceiling sits 4 % above that.
// It is absolute and not a ratio against the separate passes because
// those get cheaper whenever a pass does.
func TestAnalyzeAllocations(t *testing.T) {
	mods := libraryModules(t)
	cfg := analysis.DefaultConfig()
	allocs := testing.AllocsPerRun(3, func() {
		for _, m := range mods {
			analysis.Analyze(m, cfg)
		}
	})
	t.Logf("Analyze over %d library elements: %.0f allocations", len(mods), allocs)
	if allocs > 6645 {
		t.Errorf("Analyze over the library made %.0f allocations, want <= 6645", allocs)
	}
}

func BenchmarkAnalyzeLibrary(b *testing.B) {
	mods := libraryModules(b)
	cfg := analysis.DefaultConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, m := range mods {
			analysis.Analyze(m, cfg)
		}
	}
}
