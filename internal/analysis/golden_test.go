package analysis_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"clara/internal/analysis"
)

// TestAnalysisOutputGolden pins every output of the package over the 26
// library elements and the 300 unique-src programs: one line per module
// with the sha256 of Analyze's diagnostics as JSON, of its state profile
// as JSON, and of SimplifyModule's printed output. A rewrite of the
// analyses underneath must leave every line where it is, or move it for a
// stated reason (run with -update to regenerate).
func TestAnalysisOutputGolden(t *testing.T) {
	cfg := analysis.DefaultConfig()
	sum := func(b []byte) string {
		h := sha256.Sum256(b)
		return hex.EncodeToString(h[:])
	}
	var b strings.Builder
	for _, m := range append(libraryModules(t), uniqueSrcModules(t)...) {
		ds, sp := analysis.Analyze(m, cfg)
		dj, err := json.Marshal(ds)
		if err != nil {
			t.Fatal(err)
		}
		pj, err := json.Marshal(sp)
		if err != nil {
			t.Fatal(err)
		}
		sm, _ := analysis.SimplifyModule(m)
		fmt.Fprintf(&b, "%s %s %s %s\n", m.Name, sum(dj), sum(pj), sum([]byte(sm.String())))
	}
	path := filepath.Join("testdata", "analysis_outputs.golden")
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
