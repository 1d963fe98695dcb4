package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// benchSpec is ../BENCHMARK.json: the names, units, directions and bounds
// this harness is held to.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readJSON(path string, into any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, into); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// suite is a whole-suite result file.
type suite struct {
	Host      host            `json:"host"`
	Commit    string          `json:"commit"`
	Seed      int64           `json:"seed"`
	Seconds   float64         `json:"seconds"`
	Runs      int             `json:"runs"`
	Workloads []suiteWorkload `json:"workloads"`
}

type suiteWorkload struct {
	Name  string    `json:"name"`
	E2E   []*record `json:"e2e"` // one per run, tracing off
	Trace *record   `json:"trace"`
}

func (sw *suiteWorkload) values(metric string) []float64 {
	var vs []float64
	for _, r := range sw.E2E {
		vs = append(vs, r.Metrics[metric].Value)
	}
	return vs
}

func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown" // not a git checkout
	}
	return strings.TrimSpace(string(out))
}

// child runs one workload in a process of its own and reads back the record
// it saved.
func child(stdout io.Writer, name string, seed int64, seconds float64, trace bool) (*record, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	kind, flag := "e2e", "0"
	if trace {
		kind, flag = "trace", "1"
	}
	cmd := exec.Command(exe, "--workload", name, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", flag)
	cmd.Stdout, cmd.Stderr = stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s (%s): %w", name, kind, err)
	}
	rec := &record{}
	return rec, readJSON(filepath.Join(outDir, name+"."+kind+".json"), rec)
}

// quartiles returns the first quartile, median and third quartile, by
// linear interpolation between order statistics.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		if len(s) == 0 {
			return 0
		}
		pos := p * float64(len(s)-1)
		lo := int(pos)
		hi := min(lo+1, len(s)-1)
		return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
	}
	return at(0.25), at(0.5), at(0.75)
}

// spread is a file's own run-to-run noise as a share of the median: the
// interquartile range, or the full range when there are too few runs for
// quartiles to mean anything.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if len(xs) < 4 {
		s := append([]float64(nil), xs...)
		sort.Float64s(s)
		q1, q3 = s[0], s[len(s)-1]
	}
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / q2
}

func printSummary(w io.Writer, su *suite) {
	fmt.Fprintf(w, "\nsummary: commit %s, seed %d, %.4g s, %d run(s) per workload; median [q1 .. q3]\n",
		su.Commit, su.Seed, su.Seconds, su.Runs)
	for _, sw := range su.Workloads {
		fmt.Fprintf(w, "%s\n", sw.Name)
		names := make([]string, 0)
		for k := range sw.E2E[0].Metrics {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			q1, q2, q3 := quartiles(sw.values(k))
			fmt.Fprintf(w, "  %-16s %12.5g [%.5g .. %.5g] %s\n", k, q2, q1, q3, sw.E2E[0].Metrics[k].Unit)
		}
		if sw.Trace != nil {
			fmt.Fprintf(w, "  share of a traced job (%.0f us):", sw.Trace.Metrics["trace.job_us"].Value)
			for _, k := range []string{"interp.profile_us", "interp.compile_us", "analysis.lint_us", "analysis.stateprofile_us",
				"core.predict_us", "lang.compile_us", "ir.fingerprint_us", "server.encode_us"} {
				if v := sw.Trace.Metrics[k].Value; v > 0 {
					fmt.Fprintf(w, " %s %.0f%%", strings.TrimSuffix(k, "_us"), 100*v/sw.Trace.Metrics["trace.job_us"].Value)
				}
			}
			fmt.Fprintln(w)
		}
	}
}

// exactRepeat are the traced-pass metrics that must not differ between two
// runs of the same code and seed: counts, and model quality.
var exactRepeat = []string{
	"lang.src_bytes", "ir.instrs", "ir.blocks", "analysis.diags", "interp.steps_per_packet",
	"interp.allocs_per_packet", "fleet.cache_hit_ratio", "fleet.prewarmed", "fleet.cache_evictions",
	"server.bytes_in_per_job", "server.rejected", "cluster.subbatches_per_req", "cluster.worker_share_max",
	"cluster.retries", "core.predict_wmape", "core.algoid_table2_correct",
}

// compareFiles prints one row per workload × end-to-end metric — base, new,
// ratio, bound and a verdict — and every exact-repeat counter that differs.
// A row is "worse" when the new median is worse than the base by more than
// the metric's bound, and "unresolved" when it is not but either file's own
// spread exceeds the bound, unless every new run beats every base run. It
// reports whether anything was worse or mismatched.
func compareFiles(w io.Writer, specFile, fileA, fileB string) (bad bool, err error) {
	var spec benchSpec
	var a, b suite
	for path, into := range map[string]any{specFile: &spec, fileA: &a, fileB: &b} {
		if err := readJSON(path, into); err != nil {
			return false, err
		}
	}
	find := func(su *suite, name string) *suiteWorkload {
		for i := range su.Workloads {
			if su.Workloads[i].Name == name {
				return &su.Workloads[i]
			}
		}
		return nil
	}
	fmt.Fprintf(w, "%-20s %-15s %12s %12s %7s %6s  %s\n", "workload", "metric", "base", "new", "ratio", "bound", "verdict")
	for _, sw := range spec.Workloads {
		wa, wb := find(&a, sw.Name), find(&b, sw.Name)
		if wa == nil || wb == nil || len(wa.E2E) == 0 || len(wb.E2E) == 0 {
			return false, fmt.Errorf("workload %s is missing from a result file", sw.Name)
		}
		for _, m := range spec.EndToEnd {
			va, vb := wa.values(m.Name), wb.values(m.Name)
			base, cur := median(va), median(vb)
			sign := 1.0 // lower is better
			if m.Better == "higher" {
				sign = -1
			}
			verdict := "ok"
			switch {
			case base == 0 || sign*(cur-base)/base > m.Bound:
				verdict, bad = "worse", true
			case max(spread(va), spread(vb)) > m.Bound && !allBetter(va, vb, sign):
				verdict = fmt.Sprintf("unresolved (spread %.3f / %.3f)", spread(va), spread(vb))
			}
			fmt.Fprintf(w, "%-20s %-15s %12.5g %12.5g %7.3f %6.2f  %s\n", sw.Name, m.Name, base, cur, cur/base, m.Bound, verdict)
		}
		for _, r := range append(append([]*record(nil), wa.E2E...), wb.E2E...) {
			if !r.Correct {
				fmt.Fprintf(w, "%-20s a run failed %d of %d ops or a verification check\n", sw.Name, r.Failed, r.Ops)
				bad = true
			}
		}
		ta, tb := wa.Trace, wb.Trace
		if ta == nil || tb == nil {
			continue
		}
		mismatch := func(what string, x, y any) {
			fmt.Fprintf(w, "%-20s %s differs: %v vs %v\n", sw.Name, what, x, y)
			bad = true
		}
		if ta.Jobs != tb.Jobs {
			mismatch("traced jobs", ta.Jobs, tb.Jobs)
		}
		for _, k := range exactRepeat {
			if x, y := ta.Metrics[k].Value, tb.Metrics[k].Value; x != y {
				mismatch(k, x, y)
			}
		}
		for _, k := range []string{"insights_digest", "model_hash"} {
			if x, y := ta.Digests[k], tb.Digests[k]; x != y {
				mismatch(k, x, y)
			}
		}
		if !ta.Correct || !tb.Correct {
			mismatch("traced-pass verification", ta.Correct, tb.Correct)
		}
	}
	return bad, nil
}

// allBetter reports whether every run in b reads better than every run in a.
func allBetter(a, b []float64, sign float64) bool {
	for _, x := range a {
		for _, y := range b {
			if sign*(y-x) >= 0 {
				return false
			}
		}
	}
	return true
}
