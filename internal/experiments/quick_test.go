package experiments

import (
	"bytes"
	"flag"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/quick.golden from this run")

const quickGolden = "testdata/quick.golden"

func quickContext() *Context {
	return NewContext(Config{Quick: true, Seed: 42, Params: DefaultConfig().Params})
}

// quickRun is the quick-scale suite run this package's tests share: each
// experiment runs at most once per test binary, all on one Context, as
// `clarabench -quick` runs them.
var quickRun = struct {
	ctx    *Context
	tables map[string]*Table
}{quickContext(), map[string]*Table{}}

// run runs one experiment on ctx.
func run(t *testing.T, ctx *Context, id string) *Table {
	t.Helper()
	tb, err := Get(id).Run(ctx)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	return tb
}

// quickTable returns experiment id's table from the shared run.
func quickTable(t *testing.T, id string) *Table {
	t.Helper()
	if tb, ok := quickRun.tables[id]; ok {
		return tb
	}
	tb := run(t, quickRun.ctx, id)
	quickRun.tables[id] = tb
	return tb
}

// render returns a table as clarabench prints it.
func render(tb *Table) string {
	var buf bytes.Buffer
	tb.Fprint(&buf)
	return buf.String()
}

// goldenBlocks splits a suite transcript into its per-experiment tables.
func goldenBlocks(s string) map[string]string {
	out := map[string]string{}
	for _, b := range strings.SplitAfter(s, "\n\n") {
		if id, _, ok := strings.Cut(strings.TrimPrefix(b, "== "), ":"); ok {
			out[id] = b
		}
	}
	return out
}

// firstDiff names the first line where got departs from want.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return "line " + strconv.Itoa(i+1) + ":\n  got:  " + gl + "\n  want: " + wl
		}
	}
	return "identical"
}

// TestQuickSuiteRuns runs every experiment at quick scale in suite order on
// one Context — exactly `clarabench -quick` — and holds the transcript to
// testdata/quick.golden byte for byte (each table, and with -run selecting
// every subtest, the whole transcript). -update rewrites the golden.
func TestQuickSuiteRuns(t *testing.T) {
	want, err := os.ReadFile(quickGolden)
	if err != nil && !*update {
		t.Fatal(err)
	}
	blocks := goldenBlocks(string(want))
	var all strings.Builder
	ran := 0
	for _, e := range All() {
		t.Run(e.ID, func(t *testing.T) {
			got := render(quickTable(t, e.ID))
			all.WriteString(got)
			ran++
			if !*update && got != blocks[e.ID] {
				t.Errorf("%s differs from %s at %s", e.ID, quickGolden, firstDiff(got, blocks[e.ID]))
			}
		})
	}
	if ran < len(All()) {
		if *update {
			t.Fatal("-update needs the whole suite: run TestQuickSuiteRuns without a subtest filter")
		}
		return
	}
	if *update {
		if err := os.WriteFile(quickGolden, []byte(all.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if all.String() != string(want) {
		t.Errorf("suite transcript differs from %s at %s", quickGolden, firstDiff(all.String(), string(want)))
	}
}

// TestQuickSuiteDeterministic reruns the two experiments that used to vary
// run to run (figure11a's DNN row through a map-order sum in the scale-out
// features; figure11ef's notes through a map range) twice, on fresh
// Contexts under GOMAXPROCS 1 and 4: both transcripts must be
// byte-identical.
func TestQuickSuiteDeterministic(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var first string
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		ctx := quickContext()
		got := render(run(t, ctx, "figure11a")) + render(run(t, ctx, "figure11ef"))
		if first == "" {
			first = got
		} else if got != first {
			t.Fatalf("GOMAXPROCS=%d run differs at %s", procs, firstDiff(got, first))
		}
	}
}

// TestStagesShared holds the stage cache to its purpose: over one suite
// run, each intermediate that several experiments read is computed once
// (stage stores a key once) and read by every one of them.
func TestStagesShared(t *testing.T) {
	for _, e := range All() {
		quickTable(t, e.ID)
	}
	want := map[string]int{
		"colocator": 2, // figure14a, figure14bc
		"ablation-predictor/compact=true/api=false": 2, // figure8-ablation, reverse-port-ablation
	}
	for _, nf := range figure8NFs {
		want["compile/"+nf] = 2 // figure8, reverse-port-ablation
	}
	for _, nf := range complexNFs {
		want["placement/"+nf] = 2            // figure12, figure15
		want["sweep/"+nf+"/large-flows"] = 2 // figure11b, figure11cd
	}
	for _, nf := range []string{"mazunat", "webgen"} {
		want["sweep/"+nf+"/large-flows"] = 3 // and figure11ef
		want["suggest/"+nf] = 2              // figure11b, figure11ef
	}
	for _, nf := range coalesceNFs {
		want["packs/"+nf] = 2 // figure13, figure16
	}
	for key, n := range want {
		if e := quickRun.ctx.stages[key]; e == nil || e.uses != n {
			t.Errorf("stage %s: %+v, want computed once and read %d times", key, e, n)
		}
	}
}

func TestGetExperiment(t *testing.T) {
	if Get("figure8") == nil {
		t.Error("figure8 missing")
	}
	if Get("nope") != nil {
		t.Error("phantom experiment")
	}
}
