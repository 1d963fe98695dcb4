// Command claravet is Clara's project-specific determinism analyzer.
//
// The simulation and model-training packages promise bit-identical
// results for identical inputs (same seed ⇒ same trajectory, same
// training config ⇒ same weights); that contract is what lets golden
// tests pin trajectories byte-for-byte and model bundles hash stably.
// claravet statically flags the constructs that silently break it:
//
//   - time-now: time.Now() — wall-clock reads make output depend on
//     when the run happened;
//   - global-rand: math/rand package-level functions (rand.Intn,
//     rand.Float64, ...) — they draw from the process-global source;
//     deterministic code must thread an explicitly seeded *rand.Rand
//     (rand.New/rand.NewSource/rand.NewZipf are fine);
//   - map-range: ranging over a map — Go randomizes iteration order per
//     run, so any fold over it must be order-insensitive or sorted;
//   - float-reduce: loops that are pure scalar reductions over the
//     loop's own index (s += a[i], s += a[i]*b[i]) outside
//     internal/ml/vek — summation order is part of the numeric
//     contract, so reductions belong in the shared kernels where the
//     order is fixed in one place.
//
// A finding is suppressed by a `//claravet:allow` comment on the same
// line or the line directly above — the escape hatch for sites that
// are provably outside the deterministic path (wall-clock metrics,
// order-insensitive map folds).
//
// The analyzer is deliberately syntactic (go/ast only, no dependencies,
// no type checker): map-range detection uses the package's own
// declarations to learn which names are maps — names per file, struct
// fields package-wide — which covers the deterministic packages' actual
// code and errs silent rather than noisy on what it cannot see. It is a
// tripwire, not a proof.
//
// Usage: claravet [dir ...]   (default: the deterministic packages)
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// defaultDirs are the packages whose determinism contract claravet
// enforces (see their package comments: offload's golden trajectories,
// ml's bit-identical training, nicsim's cost model, fleet's
// result-is-a-pure-function-of-the-job promise, core's insights and the
// evaluation tables pinned by the experiments quick-suite golden).
var defaultDirs = []string{
	"internal/ml",
	"internal/offload",
	"internal/nicsim",
	"internal/fleet",
	"internal/core",
	"internal/experiments",
}

// allowDirective suppresses findings on its own line or the next.
const allowDirective = "claravet:allow"

// globalRandAllowed are the math/rand selectors that do NOT touch the
// global source: constructors for explicitly seeded generators.
var globalRandAllowed = map[string]bool{
	"New":       true,
	"NewSource": true,
	"NewZipf":   true,
}

type finding struct {
	pos  token.Position
	rule string
	msg  string
}

func main() {
	dirs := os.Args[1:]
	if len(dirs) == 0 {
		dirs = defaultDirs
	}
	var all []finding
	for _, dir := range dirs {
		fs, err := vetDir(dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "claravet: %v\n", err)
			os.Exit(2)
		}
		all = append(all, fs...)
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.pos.Filename != b.pos.Filename {
			return a.pos.Filename < b.pos.Filename
		}
		if a.pos.Line != b.pos.Line {
			return a.pos.Line < b.pos.Line
		}
		return a.rule < b.rule
	})
	for _, f := range all {
		fmt.Printf("%s:%d:%d: %s: %s\n", f.pos.Filename, f.pos.Line, f.pos.Column, f.rule, f.msg)
	}
	if len(all) > 0 {
		os.Exit(1)
	}
}

// vetDir analyzes one directory tree (every non-test .go file).
func vetDir(root string) ([]finding, error) {
	byDir := map[string][]string{}
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		dir := filepath.Dir(path)
		byDir[dir] = append(byDir[dir], path)
		return nil
	})
	if err != nil {
		return nil, err
	}
	dirs := make([]string, 0, len(byDir))
	for d := range byDir {
		dirs = append(dirs, d)
	}
	sort.Strings(dirs)
	var all []finding
	for _, d := range dirs {
		sort.Strings(byDir[d])
		fs, err := vetPackage(d, byDir[d])
		if err != nil {
			return nil, err
		}
		all = append(all, fs...)
	}
	return all, nil
}

// vetPackage parses one package's files and runs every check.
func vetPackage(dir string, paths []string) ([]finding, error) {
	fset := token.NewFileSet()
	var files []*ast.File
	for _, p := range paths {
		f, err := parser.ParseFile(fset, p, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	// The vek package is where reduction loops are supposed to live.
	inVek := filepath.Base(dir) == "vek"
	// Map-typed struct fields are learned package-wide: a selector such as
	// prof.GlobalFreq can only mean the field, in whichever file the
	// struct is declared.
	fieldMaps := map[string]bool{}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if st, ok := n.(*ast.StructType); ok {
				addMapFields(fieldMaps, st.Fields)
			}
			return true
		})
	}
	var out []finding
	for _, f := range files {
		allowed := allowedLines(fset, f)
		v := &vetter{
			fset:    fset,
			imports: importNames(f),
			// Map names are learned per file: the same short name (idx,
			// order, ...) routinely means a map in one file and a slice in
			// another, and a package-wide table would flag the slice.
			mapNames:  collectMapNames([]*ast.File{f}),
			fieldMaps: fieldMaps,
			allowed:   allowed,
			inVek:     inVek,
		}
		ast.Inspect(f, v.check)
		out = append(out, v.findings...)
	}
	return out, nil
}

// allowedLines returns the line numbers suppressed by allow directives:
// the directive's own line and the one after it.
func allowedLines(fset *token.FileSet, f *ast.File) map[int]bool {
	out := map[int]bool{}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if strings.Contains(c.Text, allowDirective) {
				line := fset.Position(c.Pos()).Line
				out[line] = true
				out[line+1] = true
			}
		}
	}
	return out
}

// importNames maps each file-local import name to its import path.
func importNames(f *ast.File) map[string]string {
	out := map[string]string{}
	for _, im := range f.Imports {
		path := strings.Trim(im.Path.Value, `"`)
		name := path[strings.LastIndex(path, "/")+1:]
		if im.Name != nil {
			name = im.Name.Name
		}
		out[name] = path
	}
	return out
}

// collectMapNames learns which identifiers in a package denote maps,
// from the declarations the package itself contains: typed var decls
// and struct fields, function params/results, and `:=` bindings of
// make(map[...])/map literals.
func collectMapNames(files []*ast.File) map[string]bool {
	names := map[string]bool{}
	addField := func(fl *ast.FieldList) { addMapFields(names, fl) }
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ValueSpec:
				for i, id := range n.Names {
					switch {
					case isMapType(n.Type):
						names[id.Name] = true
					case n.Type == nil && i < len(n.Values) && isMapExpr(n.Values[i]):
						names[id.Name] = true
					}
				}
			case *ast.StructType:
				addField(n.Fields)
			case *ast.FuncType:
				addField(n.Params)
				addField(n.Results)
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					id, ok := lhs.(*ast.Ident)
					if !ok || i >= len(n.Rhs) && len(n.Rhs) != 1 {
						continue
					}
					rhs := n.Rhs[0]
					if len(n.Rhs) == len(n.Lhs) {
						rhs = n.Rhs[i]
					}
					if isMapExpr(rhs) {
						names[id.Name] = true
					}
				}
			}
			return true
		})
	}
	return names
}

// addMapFields records the map-typed names a field list declares.
func addMapFields(names map[string]bool, fl *ast.FieldList) {
	if fl == nil {
		return
	}
	for _, fd := range fl.List {
		if isMapType(fd.Type) {
			for _, n := range fd.Names {
				names[n.Name] = true
			}
		}
	}
}

func isMapType(e ast.Expr) bool {
	_, ok := e.(*ast.MapType)
	return ok
}

// isMapExpr recognizes make(map[...]) and map-literal right-hand sides.
func isMapExpr(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.CallExpr:
		if id, ok := e.Fun.(*ast.Ident); ok && id.Name == "make" && len(e.Args) > 0 {
			return isMapType(e.Args[0])
		}
	case *ast.CompositeLit:
		return isMapType(e.Type)
	}
	return false
}

// vetter runs the per-file checks.
type vetter struct {
	fset      *token.FileSet
	imports   map[string]string
	mapNames  map[string]bool // this file's map-typed names
	fieldMaps map[string]bool // the package's map-typed struct fields
	allowed   map[int]bool
	inVek     bool
	findings  []finding
}

func (v *vetter) report(n ast.Node, rule, msg string) {
	pos := v.fset.Position(n.Pos())
	if v.allowed[pos.Line] {
		return
	}
	v.findings = append(v.findings, finding{pos: pos, rule: rule, msg: msg})
}

func (v *vetter) check(n ast.Node) bool {
	switch n := n.(type) {
	case *ast.CallExpr:
		v.checkCall(n)
	case *ast.RangeStmt:
		v.checkRange(n)
	case *ast.ForStmt:
		v.checkReduce(n.Body, forInduction(n))
	}
	return true
}

func (v *vetter) checkCall(c *ast.CallExpr) {
	sel, ok := c.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return
	}
	switch v.imports[id.Name] {
	case "time":
		if sel.Sel.Name == "Now" {
			v.report(c, "time-now", "wall-clock read in a deterministic package; thread the value in or annotate the metrics-only site")
		}
	case "math/rand":
		if !globalRandAllowed[sel.Sel.Name] {
			v.report(c, "global-rand", fmt.Sprintf("rand.%s draws from the process-global source; use an explicitly seeded *rand.Rand", sel.Sel.Name))
		}
	}
}

func (v *vetter) checkRange(r *ast.RangeStmt) {
	name, isMap := "", false
	switch x := r.X.(type) {
	case *ast.Ident:
		name, isMap = x.Name, v.mapNames[x.Name]
	case *ast.SelectorExpr:
		name = x.Sel.Name
		isMap = v.mapNames[name] || v.fieldMaps[name]
	}
	if isMap {
		v.report(r, "map-range", fmt.Sprintf("iteration order over map %q is randomized per run; sort the keys or annotate an order-insensitive fold", name))
	}
	v.checkReduce(r.Body, rangeInduction(r))
}

// forInduction returns the induction variable of a classic counted loop
// (`for i := 0; ...`), or "" when there is none.
func forInduction(f *ast.ForStmt) string {
	as, ok := f.Init.(*ast.AssignStmt)
	if !ok || as.Tok != token.DEFINE || len(as.Lhs) != 1 {
		return ""
	}
	if id, ok := as.Lhs[0].(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// rangeInduction returns the key variable of a range loop (`for i :=
// range a`, `for i, x := range a`), or "" when it is blank or reused.
func rangeInduction(r *ast.RangeStmt) string {
	if r.Tok != token.DEFINE {
		return ""
	}
	if id, ok := r.Key.(*ast.Ident); ok && id.Name != "_" {
		return id.Name
	}
	return ""
}

// checkReduce flags pure scalar reductions — loops whose entire body is
// `s += a[i]` / `s += a[i]*b[i]` accumulations indexed by the loop's own
// induction variable. Exactly those loops are replaceable element-for-
// element by a vek kernel (vek.Sum, vek.Dot) without reordering the
// summation, so they belong in internal/ml/vek where the order is owned
// in one place. Loops that interleave other work (computing the term
// being summed, guards, gathers through an index slice) are fused
// compute, not misplaced kernels, and are left alone.
func (v *vetter) checkReduce(body *ast.BlockStmt, induction string) {
	if v.inVek || body == nil || induction == "" || len(body.List) == 0 {
		return
	}
	for _, st := range body.List {
		as, ok := st.(*ast.AssignStmt)
		if !ok || as.Tok != token.ADD_ASSIGN || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return
		}
		if _, ok := as.Lhs[0].(*ast.Ident); !ok {
			return // accumulating into a[i] is a vector update, not a reduction
		}
		if !isReductionRHS(as.Rhs[0], induction) {
			return
		}
	}
	v.report(body.List[0], "float-reduce", "loop body is a pure scalar reduction; use a vek kernel (vek.Sum/vek.Dot) so summation order is owned centrally")
}

// isReductionRHS matches a[i] and a[i]*b[i] where every index is exactly
// the loop's induction variable — the sum/dot shapes the vek kernels
// provide. Any other index (a gather through idx[i], an offset, a
// different variable) disqualifies the term.
func isReductionRHS(e ast.Expr, induction string) bool {
	byInduction := func(x ast.Expr) bool {
		ix, ok := x.(*ast.IndexExpr)
		if !ok {
			return false
		}
		id, ok := ix.Index.(*ast.Ident)
		return ok && id.Name == induction
	}
	switch e := e.(type) {
	case *ast.IndexExpr:
		return byInduction(e)
	case *ast.BinaryExpr:
		return e.Op == token.MUL && byInduction(e.X) && byInduction(e.Y)
	}
	return false
}
