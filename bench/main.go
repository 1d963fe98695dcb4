// Command bench is Clara's benchmark: four closed-loop workloads, one per
// front door and cache regime, measured end to end with tracing off, and a
// separate traced run that attributes a job's time to the repo's packages
// by timing calls into their public functions from outside. See README.md
// for the metric glossary and ../BENCHMARK.json for names and bounds.
//
// It is a module of its own (clara/bench, replacing clara with ..) and runs
// from this directory:
//
//	go run -C bench . --workload NAME --seed N --seconds S --trace 0|1
//	go run -C bench . [-seed N] [-seconds S] [-runs N] [-out FILE]
//	go run -C bench . -compare A.json B.json
//
// The first form runs one workload in this process and prints the result
// object as the last line of standard output. The second runs every
// workload, untraced then traced, each in a child process of its own (so
// peak RSS, CPU time and the process-wide interpreter and traffic caches
// start clean), and writes the records to FILE. The third compares two
// such files against the bounds in BENCHMARK.json.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"clara"
)

const (
	specPath = "../BENCHMARK.json"
	outDir   = "out"
	// tracedJobsPerSecond sizes the traced pass from -seconds, so one
	// flag scales both kinds of run (10 s: 1000 jobs).
	tracedJobsPerSecond = 100
)

// metric is one named measurement; N is the sample count behind it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// host is the part of the run-validity record that describes the machine.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
}

// record is one run of one workload: the run-validity record, the metrics,
// and what must repeat exactly between runs of the same code and seed.
type record struct {
	Workload  string            `json:"workload"`
	Trace     bool              `json:"trace"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Host      host              `json:"host"`
	Clients   int               `json:"clients"`
	Ops       int               `json:"ops"`
	Jobs      int               `json:"jobs"`
	Failed    int               `json:"failed"`
	Correct   bool              `json:"correct"`
	Disturbed bool              `json:"disturbed"` // host.spin_ms readings before and after differ by > 10 %
	SpinMS    [2]float64        `json:"spin_ms"`
	Metrics   map[string]metric `json:"metrics"`
	Digests   map[string]string `json:"digests,omitempty"` // insights_digest, model_hash
	Failures  []string          `json:"failures,omitempty"`
	Spans     []span            `json:"spans,omitempty"`
}

// runConfig is one run of one workload.
type runConfig struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	setupReps int // set-up sequences executed; setup_s is their median
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "run one workload in this process (default: all, a child process each)")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 10, "measured seconds per untraced run; the traced pass does 100 jobs per second")
	trace := fs.Int("trace", 0, "with -workload: 1 = traced pass (per-layer metrics), 0 = end-to-end run")
	runs := fs.Int("runs", 1, "untraced runs per workload (median and quartiles are reported)")
	out := fs.String("out", filepath.Join(outDir, "suite.json"), "result file for a whole-suite run")
	compare := fs.Bool("compare", false, "compare two result files: -compare A.json B.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var err error
	switch {
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare needs two result files")
			return 2
		}
		var worse bool
		if worse, err = compareFiles(stdout, specPath, fs.Arg(0), fs.Arg(1)); err == nil && worse {
			return 1
		}
	case *name != "":
		var rec *record
		rec, err = runWorkload(runConfig{*name, *seed, *seconds, *trace != 0, 3})
		if err == nil {
			err = finish(stdout, rec)
		}
	default:
		err = runSuite(stdout, *seed, *seconds, *runs, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	return 0
}

// finish prints a record for people, saves it under out/, and prints the
// result object as the last line.
func finish(stdout io.Writer, rec *record) error {
	printRecord(stdout, rec)
	kind := "e2e"
	if rec.Trace {
		kind = "trace"
	}
	if err := writeJSON(filepath.Join(outDir, rec.Workload+"."+kind+".json"), rec); err != nil {
		return err
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rec.Correct, rec.Ops, rec.Failed, map[string]value{}}
	if rec.Trace {
		line.Attempted = rec.Jobs
	}
	for k, m := range rec.Metrics {
		line.Metrics[k] = value{m.Value, m.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", b)
	return err
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func printRecord(w io.Writer, rec *record) {
	kind := "end-to-end, tracing off"
	if rec.Trace {
		kind = "traced pass"
	}
	fmt.Fprintf(w, "%s (%s): seed %d, %.4g s, %d client(s), %d ops, %d jobs, %d failed\n",
		rec.Workload, kind, rec.Seed, rec.Seconds, rec.Clients, rec.Ops, rec.Jobs, rec.Failed)
	fmt.Fprintf(w, "  host: %d cpus, GOMAXPROCS %d, %s, %s; spin %.1f / %.1f ms%s\n",
		rec.Host.NProc, rec.Host.GOMAXPROCS, rec.Host.GoVersion, rec.Host.CPUModel,
		rec.SpinMS[0], rec.SpinMS[1], map[bool]string{true: "  DISTURBED"}[rec.Disturbed])
	names := make([]string, 0, len(rec.Metrics))
	for k := range rec.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		m := rec.Metrics[k]
		fmt.Fprintf(w, "  %-36s %14.6g %-8s n=%d\n", k, m.Value, m.Unit, m.N)
	}
	if !rec.Trace {
		fmt.Fprintf(w, "  %-36s %14.6g %-8s n=%d\n", "fail_ratio", float64(rec.Failed)/float64(max(rec.Ops, 1)), "ratio", rec.Ops)
	}
	for k, v := range rec.Digests {
		fmt.Fprintf(w, "  %-36s %s\n", k, v)
	}
	for _, f := range rec.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
	fmt.Fprintf(w, "  correct: %v\n", rec.Correct)
}

func hostInfo() host {
	h := host{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), CPUModel: "unknown"}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// setup is one execution of a workload's set-up sequence: train, save the
// bundle, load it back, open the door, warm it. Training is inside so that
// work moved from jobs into start-up shows in setup_s.
type setup struct {
	tool                  *clara.Tool
	hash                  string
	door                  door
	total, train, load    time.Duration
	bundleBytes, jobsInOp int
}

// trainConfig is the model every workload serves.
var trainConfig = clara.TrainConfig{Quick: true, Seed: 42}

func setUp(w workload, seed int64) (*setup, error) {
	cfg := trainConfig
	s := &setup{}
	t0 := time.Now()
	tool, err := clara.TrainContext(context.Background(), cfg)
	if err != nil {
		return nil, err
	}
	s.train = time.Since(t0)
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(outDir, w.name+".bundle.json")
	if _, err := clara.SaveTool(path, tool, cfg, s.train.Seconds()); err != nil {
		return nil, err
	}
	t1 := time.Now()
	if s.tool, s.hash, err = clara.LoadTool(path, cfg); err != nil {
		return nil, err
	}
	s.load = time.Since(t1)
	if fi, err := os.Stat(path); err == nil {
		s.bundleBytes = int(fi.Size())
	}
	if s.door, err = w.open(s.tool, s.hash, seed); err != nil {
		return nil, err
	}
	for i := -w.warm; i < 0; i++ {
		if _, err := s.door.send(i, false); err != nil {
			s.door.close()
			return nil, fmt.Errorf("warm-up op %d: %w", i, err)
		}
	}
	s.total = time.Since(t0)
	s.jobsInOp = len(s.door.jobs(0))
	return s, nil
}

// runWorkload runs one workload in this process.
func runWorkload(cfg runConfig) (*record, error) {
	w, ok := findWorkload(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	rec := &record{Workload: w.name, Trace: cfg.trace, Seed: cfg.seed, Seconds: cfg.seconds,
		Host: hostInfo(), Clients: w.clients, Metrics: map[string]metric{}}
	var s *setup
	var totals, trains, loads []float64
	for rep := 0; rep < cfg.setupReps; rep++ {
		if s != nil {
			s.door.close()
		}
		var err error
		if s, err = setUp(w, cfg.seed); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		totals = append(totals, s.total.Seconds())
		trains = append(trains, s.train.Seconds())
		loads = append(loads, ms(s.load))
	}
	defer s.door.close()

	if cfg.trace {
		rec.Clients = 1
		err := traced(rec, s)
		rec.Metrics["core.train_s"] = metric{median(trains), "s", len(trains)}
		rec.Metrics["core.bundle_load_ms"] = metric{median(loads), "ms", len(loads)}
		rec.Metrics["core.bundle_bytes"] = metric{float64(s.bundleBytes), "bytes", 1}
		return rec, err
	}

	rec.SpinMS[0] = spinMS()
	ph := measure(s.door, w, time.Duration(cfg.seconds*float64(time.Second)))
	rss := peakRSSMB()
	rec.SpinMS[1] = spinMS()
	rec.Disturbed = disturbed(rec.SpinMS)
	rec.Ops, rec.Failed = ph.ops, ph.failed
	rec.Jobs = len(ph.lat) * s.jobsInOp
	n := len(ph.lat)
	rec.Metrics["setup_s"] = metric{median(totals), "s", len(totals)}
	rec.Metrics["jobs_per_s"] = metric{float64(rec.Jobs) / ph.wall.Seconds(), "jobs/s", rec.Jobs}
	rec.Metrics["op_p50_ms"] = metric{percentile(ph.lat, 50), "ms", n}
	rec.Metrics["op_tail_ms"] = metric{percentile(ph.lat, tailPercentile(n)), "ms", n}
	rec.Metrics["cpu_ms_per_job"] = metric{ms(ph.cpu) / float64(max(rec.Jobs, 1)), "ms", rec.Jobs}
	rec.Metrics["peak_rss_mb"] = metric{rss, "MB", 1}
	fmt.Fprintf(os.Stderr, "bench: %s: op_tail_ms is p%.0f of %d ops\n", w.name, tailPercentile(n), n)

	// Outside the measured phase, a few ops again with every check on.
	if tr, err := tracedPass(s.door, s.tool, 8); err != nil {
		rec.Failures = []string{"verification: " + err.Error()}
	} else {
		rec.Failures = tr.failures
	}
	rec.Correct = rec.Failed == 0 && n > 0 && len(rec.Failures) == 0
	return rec, nil
}

func disturbed(spin [2]float64) bool {
	lo, hi := min(spin[0], spin[1]), max(spin[0], spin[1])
	return hi > 1.1*lo
}

// runSuite runs every workload in child processes of this binary and
// gathers their records.
func runSuite(stdout io.Writer, seed int64, seconds float64, runs int, out string) error {
	su := suite{Host: hostInfo(), Commit: gitCommit(), Seed: seed, Seconds: seconds, Runs: runs}
	for _, w := range workloads() {
		sw := suiteWorkload{Name: w.name}
		for r := 0; r < runs; r++ {
			rec, err := child(stdout, w.name, seed, seconds, false)
			if err == nil && rec.Disturbed {
				fmt.Fprintf(stdout, "%s: disturbed, running it once more\n", w.name)
				rec, err = child(stdout, w.name, seed, seconds, false)
			}
			if err != nil {
				return err
			}
			sw.E2E = append(sw.E2E, rec)
		}
		rec, err := child(stdout, w.name, seed, seconds, true)
		if err != nil {
			return err
		}
		rec.Spans = nil // they stay in out/<workload>.trace.json
		sw.Trace = rec
		su.Workloads = append(su.Workloads, sw)
	}
	printSummary(stdout, &su)
	fmt.Fprintf(stdout, "wrote %s\n", out)
	return writeJSON(out, su)
}
