package ir_test

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"clara/internal/click"
	"clara/internal/ir"
	"clara/internal/lang"
	"clara/internal/synth"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/fingerprints.golden from this run")

// libraryModules returns the 26 library elements' modules, by name.
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

// uniqueSrcModules compiles the benchmark's 300 unique-src programs: the
// Table 2 corpus profile, seeds 1000003 onward, named u0…u299. Every call
// returns fresh modules, none of them fingerprinted yet.
func uniqueSrcModules(t testing.TB) []*ir.Module {
	t.Helper()
	table2, err := click.Modules(click.Table2Order)
	if err != nil {
		t.Fatal(err)
	}
	prof := synth.ProfileFromModules(table2)
	mods := make([]*ir.Module, 300)
	for p := range mods {
		name := fmt.Sprintf("u%d", p)
		if mods[p], err = lang.Compile(name, synth.Generate(synth.Config{Profile: prof, Seed: 1000003 + int64(p)})); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	return mods
}

// TestFingerprintGolden pins module identity: the Fingerprint of the 26
// library elements and the 300 unique-src programs, one line per module.
// Every cache key and the coordinator's routing derive from these hashes,
// so a line may only move for a stated reason (run with -update to
// regenerate). The fingerprint is also required to be the sha256 of
// Module.String, so the same file pins the printer byte for byte.
func TestFingerprintGolden(t *testing.T) {
	var b strings.Builder
	for _, m := range append(libraryModules(t), uniqueSrcModules(t)...) {
		fp := ir.Fingerprint(m)
		if fp != sha256.Sum256([]byte(m.String())) {
			t.Errorf("%s: Fingerprint is not the sha256 of Module.String", m.Name)
		}
		fmt.Fprintf(&b, "%s %s\n", m.Name, hex.EncodeToString(fp[:]))
	}
	path := filepath.Join("testdata", "fingerprints.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run `make update-golden`): %v", err)
	}
	got, wantLines := strings.Split(b.String(), "\n"), strings.Split(string(want), "\n")
	if len(got) != len(wantLines) {
		t.Fatalf("%s: %d lines, want %d", path, len(got), len(wantLines))
	}
	for i := range got {
		if got[i] != wantLines[i] {
			t.Errorf("%s line %d moved:\n got %s\nwant %s", path, i+1, got[i], wantLines[i])
		}
	}
}

// BenchmarkFingerprint hashes every library module once per iteration, on
// fresh copies so the per-module memo never answers.
func BenchmarkFingerprint(b *testing.B) {
	mods := libraryModules(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, m := range mods {
			c := &ir.Module{Name: m.Name, Globals: m.Globals, Func: m.Func}
			ir.Fingerprint(c)
		}
	}
}

// TestFingerprintAllocs holds fingerprinting to the printer's one buffer:
// a fresh unique-src module hashes in at most 2 allocations.
func TestFingerprintAllocs(t *testing.T) {
	mods := uniqueSrcModules(t)
	i := 0
	allocs := testing.AllocsPerRun(len(mods)-1, func() {
		ir.Fingerprint(mods[i])
		i++
	})
	if allocs > 2 {
		t.Errorf("fingerprinting a fresh unique-src module makes %.1f allocations, want at most 2", allocs)
	}
}
