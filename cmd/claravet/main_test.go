package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// vetSource runs the analyzer over one or more fixture files (given as
// name→source) and returns the findings as "line:rule" strings.
func vetSource(t *testing.T, files map[string]string) []string {
	t.Helper()
	dir := t.TempDir()
	var paths []string
	for name, src := range files {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, p)
	}
	fs, err := vetPackage(dir, paths)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, f := range fs {
		out = append(out, strings.Join([]string{filepath.Base(f.pos.Filename), itoa(f.pos.Line), f.rule}, ":"))
	}
	return out
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}

func contains(fs []string, want string) bool {
	for _, f := range fs {
		if f == want {
			return true
		}
	}
	return false
}

func TestTimeNowAndGlobalRand(t *testing.T) {
	fs := vetSource(t, map[string]string{"a.go": `package p

import (
	"math/rand"
	"time"
)

func f() {
	_ = time.Now()
	_ = rand.Intn(4)
	_ = rand.New(rand.NewSource(1))
	_ = time.Since(time.Time{})
}
`})
	want := []string{"a.go:9:time-now", "a.go:10:global-rand"}
	if len(fs) != len(want) {
		t.Fatalf("findings = %v, want %v", fs, want)
	}
	for _, w := range want {
		if !contains(fs, w) {
			t.Errorf("missing %s in %v", w, fs)
		}
	}
}

func TestMapRangePerFile(t *testing.T) {
	// idx is a map in a.go but a slice in b.go: only a.go's range over it
	// may be flagged — map names must not leak across files.
	fs := vetSource(t, map[string]string{
		"a.go": `package p

var idx = map[string]int{}

func f() {
	for k := range idx {
		_ = k
	}
}
`,
		"b.go": `package p

func g(idx []int) int {
	s := 0
	for _, v := range idx {
		s += v
	}
	return s
}
`,
	})
	if len(fs) != 1 || fs[0] != "a.go:6:map-range" {
		t.Fatalf("findings = %v, want exactly [a.go:6:map-range]", fs)
	}
}

func TestMapRangeFieldAcrossFiles(t *testing.T) {
	// A struct field declared in one file and ranged through a selector in
	// another (core's HostProfile.GlobalFreq summed in scaleout.go): the
	// selector can only mean the field, so it is flagged. A bare name that
	// merely matches the field's name stays per-file.
	fs := vetSource(t, map[string]string{
		"a.go": `package p

type profile struct{ GlobalFreq map[string]float64 }
`,
		"b.go": `package p

func sum(prof *profile, GlobalFreq []float64) float64 {
	s := 0.0
	for _, f := range prof.GlobalFreq {
		s += f
	}
	for _, f := range GlobalFreq {
		s += f
	}
	return s
}
`,
	})
	if len(fs) != 1 || fs[0] != "b.go:5:map-range" {
		t.Fatalf("findings = %v, want exactly [b.go:5:map-range]", fs)
	}
}

func TestMapRangeSources(t *testing.T) {
	// Struct fields, params, := of make(map) all teach the map table.
	fs := vetSource(t, map[string]string{"a.go": `package p

type s struct{ byName map[string]int }

func f(v s, arg map[int]bool) {
	local := make(map[string]string)
	for k := range v.byName {
		_ = k
	}
	for k := range arg {
		_ = k
	}
	for k := range local {
		_ = k
	}
}
`})
	want := []string{"a.go:7:map-range", "a.go:10:map-range", "a.go:13:map-range"}
	if len(fs) != len(want) {
		t.Fatalf("findings = %v, want %v", fs, want)
	}
}

func TestFloatReducePureOnly(t *testing.T) {
	fs := vetSource(t, map[string]string{"a.go": `package p

func sum(a []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i]
	}
	return s
}

func dot(a, b []float64) float64 {
	s := 0.0
	for i := 0; i < len(a); i++ {
		s += a[i] * b[i]
	}
	return s
}

func gather(y []float64, nb []int) float64 {
	s := 0.0
	for _, i := range nb {
		s += y[i]
	}
	return s
}

func fused(a []float64) float64 {
	s := 0.0
	for i := range a {
		x := a[i] * a[i]
		s += x
	}
	return s
}

func guarded(a []float64, use []bool) float64 {
	s := 0.0
	for i := range a {
		if !use[i] {
			continue
		}
		s += a[i]
	}
	return s
}
`})
	// Only the pure sum and pure dot are kernel-shaped; the gather (index
	// is the range value, not the induction variable), the fused
	// compute+accumulate, and the guarded sum are not.
	want := []string{"a.go:6:float-reduce", "a.go:14:float-reduce"}
	if len(fs) != len(want) {
		t.Fatalf("findings = %v, want %v", fs, want)
	}
	for _, w := range want {
		if !contains(fs, w) {
			t.Errorf("missing %s in %v", w, fs)
		}
	}
}

func TestAllowDirective(t *testing.T) {
	fs := vetSource(t, map[string]string{"a.go": `package p

import "time"

func f() {
	_ = time.Now() //claravet:allow metrics only
	//claravet:allow metrics only
	_ = time.Now()
	_ = time.Now()
}
`})
	if len(fs) != 1 || fs[0] != "a.go:9:time-now" {
		t.Fatalf("findings = %v, want only the unannotated line 9", fs)
	}
}
