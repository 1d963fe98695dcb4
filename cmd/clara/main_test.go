package main

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"clara"
	"clara/internal/server"
	"clara/internal/traffic"
)

// check runs one command line through the same two steps main does.
func check(args string) error {
	f, _, err := parseFlags(strings.Fields(args))
	if err == nil {
		err = checkFlags(f)
	}
	return err
}

// runCases checks each command line against the error substring it must
// produce ("" = accepted).
func runCases(t *testing.T, cases []struct{ name, args, wantErr string }) {
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := check(c.args)
			if c.wantErr == "" {
				if err != nil {
					t.Fatalf("valid flags rejected: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("want error containing %q, got %v", c.wantErr, err)
			}
		})
	}
}

func TestCheckFlagsSimulate(t *testing.T) {
	runCases(t, []struct{ name, args, wantErr string }{
		{"default simulate", "-simulate", ""},
		{"simulate with nf", "-simulate -nf mazunat", ""},
		{"simulate with src", "-simulate -src x.nfc", ""},
		{"simulate with overrides", "-simulate -cps 1000 -pps 65536", ""},
		{"every scenario", "-simulate -scenario elephantmice", ""},
		{"every policy", "-simulate -policy static", ""},
		{"simulate with nf and model flags", "-simulate -nf ecmp -quick -model-load m.json", ""},

		{"zero rounds", "-simulate -rounds 0", "-rounds must be positive"},
		{"negative rounds", "-simulate -rounds -5", "-rounds must be positive"},
		{"negative cps", "-simulate -cps -1", "-cps must be >= 0"},
		{"negative pps", "-simulate -pps -1", "-pps must be >= 0"},
		{"unknown scenario", "-simulate -scenario nope", "unknown scenario"},
		{"unknown policy", "-simulate -policy nope", "unknown policy"},

		{"simulate with serve", "-simulate -serve :8080", "-serve"},
		{"simulate with fleet", "-simulate -fleet", "cannot be combined with -fleet"},
		{"simulate with lint", "-simulate -lint", "cannot be combined with -lint"},
		{"simulate with list", "-simulate -list", "cannot be combined with -list"},
		{"simulate with trace", "-simulate -trace t.bin", "cannot be combined with -trace"},
		{"simulate trains nothing without an nf", "-simulate -quick", "-quick only applies to -simulate with -nf or -src"},
	})
}

// TestCheckFlagsSimOnlyFlags: the simulation knobs are rejected outside
// -simulate even when set to their default values (detection goes
// through flag.Visit, carried in cliFlags.set).
func TestCheckFlagsSimOnlyFlags(t *testing.T) {
	err := check("-nf mazunat -scenario zipf")
	if err == nil || !strings.Contains(err.Error(), "-scenario only applies to -simulate") {
		t.Fatalf("sim-only flag outside -simulate not rejected: %v", err)
	}
}

// TestCheckFlagsExisting pins the validations: value ranges, one mode per
// command line, and — through the one mode table — no flag that the
// selected mode would silently drop.
func TestCheckFlagsExisting(t *testing.T) {
	runCases(t, []struct{ name, args, wantErr string }{
		{"json without lint", "-nf x -json", "-json only applies"},
		{"model flags with list", "-list -model-load m.json", "-model-load"},
		{"negative workers", "-workers -1", "-workers must be >= 0"},
		{"fleet with nf", "-fleet -nf x", "-fleet analyzes"},
		{"fleet with lint", "-fleet -lint", "mutually exclusive"},
		{"nf with src", "-nf a -src b", "mutually exclusive"},
		{"serve with fleet", "-serve :1 -fleet", "-serve"},
		{"queue without serve", "-queue 3", "-queue and -timeout"},
		{"negative queue", "-serve :1 -queue -1", "-queue must be >= 0"},
		{"negative timeout", "-serve :1 -timeout -1s", "-timeout must be >= 0"},
		{"plain analyze ok", "-nf mazunat -workload mix", ""},
		{"serve ok", "-serve :8080 -queue 4 -timeout 1m", ""},

		{"coordinator ok", "-coordinator :9090 -workers h1:8080,h2:8080", ""},
		{"coordinator with timeout", "-coordinator :9090 -workers h1:8080 -timeout 1m", ""},
		{"coordinator without workers", "-coordinator :9090", "-coordinator requires -workers"},
		{"coordinator with serve", "-coordinator :9090 -workers h1:8080 -serve :8080", "cannot be combined with -serve"},
		{"coordinator with nf", "-coordinator :9090 -workers h1:8080 -nf tcpack", "cannot be combined with -nf"},
		{"coordinator with model-load", "-coordinator :9090 -workers h1:8080 -model-load m.json", "cannot be combined with -model-load"},
		{"coordinator with queue", "-coordinator :9090 -workers h1:8080 -queue 4", "-queue does not apply"},

		// Flags a mode does not read used to run and be dropped.
		{"fleet with trace", "-fleet -trace f", "-trace only applies to -nf/-src analysis"},
		{"fleet with workload", "-fleet -workload small", "-workload only applies to"},
		{"lint with workload", "-lint -nf x -workload small", "-workload only applies to"},
		{"serve with workload", "-serve :1 -workload small", "-workload only applies to"},
		{"coordinator with quick", "-coordinator :9090 -workers h1:8080 -quick", "cannot be combined with -quick"},
		{"lint with quick", "-lint -nf x -quick", "-quick only applies to"},
		{"lint with quantize", "-lint -nf x -quantize", "flag provided but not defined: -quantize"},
		{"analyze with workers", "-nf x -workers 4", "-workers only applies to -coordinator, -serve, -fleet"},
		{"trace with workload", "-nf x -trace f -workload small", "-workload does not apply with -trace"},
		{"why with nf", "-why list -nf x", "cannot be combined with -nf"},
		{"no input", "-quick", "need -nf or -src"},
		{"lint without input", "-lint", "need -nf or -src"},
		{"fleet with every flag it reads", "-fleet -quick -workers 8 -model-load m -model-save m", ""},
		{"lint json ok", "-lint -src f.nfc -json", ""},
		{"trace ok", "-nf udpcount -trace capture.bin", ""},
	})
}

// TestParseWorkersFlag pins -workers' dual role: an integer pool size
// normally, a comma-separated endpoint list under -coordinator.
func TestParseWorkersFlag(t *testing.T) {
	if n, addrs, err := parseWorkersFlag("", false); n != 0 || addrs != nil || err != nil {
		t.Errorf("empty: got (%d, %v, %v)", n, addrs, err)
	}
	if n, _, err := parseWorkersFlag("8", false); n != 8 || err != nil {
		t.Errorf("pool size: got (%d, %v)", n, err)
	}
	if _, _, err := parseWorkersFlag("h1:8080,h2:8080", false); err == nil ||
		!strings.Contains(err.Error(), "-coordinator") {
		t.Errorf("endpoint list without -coordinator not rejected: %v", err)
	}
	_, addrs, err := parseWorkersFlag("h1:8080, h2:8080,", true)
	if err != nil || len(addrs) != 2 || addrs[0] != "h1:8080" || addrs[1] != "h2:8080" {
		t.Errorf("coordinator list: got (%v, %v)", addrs, err)
	}
	if _, addrs, _ := parseWorkersFlag("", true); len(addrs) != 0 {
		t.Errorf("empty coordinator list parsed as %v", addrs)
	}
}

// TestTraceReportDeclarationOrder: `clara -nf X -trace f` prints one
// placement line per global, in the module's declaration order, on every
// run — not in map iteration order, which changes from run to run.
func TestTraceReportDeclarationOrder(t *testing.T) {
	job, err := server.ElementJob("mazunat", traffic.MediumMix)
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, g := range job.Mod.Globals {
		want = append(want, g.Name)
	}
	if len(want) < 3 {
		t.Fatalf("mazunat has %d globals; the test needs several", len(want))
	}
	path := filepath.Join(t.TempDir(), "mix.trace")
	fh, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := traffic.WriteTrace(fh, traffic.MustTrace(traffic.MediumMix, 200)); err != nil {
		t.Fatal(err)
	}
	if err := fh.Close(); err != nil {
		t.Fatal(err)
	}
	tool := &clara.Tool{Params: clara.DefaultParams()}
	for run := 0; run < 10; run++ {
		var out bytes.Buffer
		if err := writeTraceReport(&out, tool, job, path); err != nil {
			t.Fatal(err)
		}
		_, lines, _ := strings.Cut(out.String(), "State placement:\n")
		lines, _, _ = strings.Cut(lines, "Coalescing packs:")
		var got []string
		for _, line := range strings.Split(strings.TrimSpace(lines), "\n") {
			got = append(got, strings.Fields(line)[0])
		}
		if !slices.Equal(got, want) {
			t.Fatalf("run %d: placement printed as %v, want declaration order %v", run, got, want)
		}
	}
}
