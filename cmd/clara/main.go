// Command clara analyzes an unported NF and prints its offloading
// insights: predicted instruction counts, accelerator opportunities,
// suggested core count, state placement, and coalescing packs.
//
// Usage:
//
//	clara -nf mazunat [-workload small|large|mix] [-quick]
//	clara -src element.nfc [-workload mix]
//	clara -nf udpcount -trace capture.bin   # profile over a recorded trace
//	clara -fleet [-workers 8] [-quick]      # whole library × all workloads
//	clara -lint -src element.nfc [-json]    # offloadability lint, no training
//	clara -serve :8080 [-workers 8] [-quick]  # HTTP analysis service
//	clara -coordinator :9090 -workers host1:8080,host2:8080  # cluster front
//	clara -nf mazunat -model-save model.json      # persist the trained model
//	clara -serve :8080 -model-load model.json     # warm start (ms, no training)
//	clara -simulate [-scenario synflood] [-policy insight] [-rounds 96]
//	clara -list
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"clara"
	"clara/internal/analysis"
	"clara/internal/core"
	"clara/internal/offload"
	"clara/internal/server"
	"clara/internal/traffic"
)

// cliFlags carries every parsed flag through validation and into the
// mode that runs.
type cliFlags struct {
	nf, src   string
	workload  string
	trace     string
	quick     bool
	list      bool
	fleetMode bool
	lintMode  bool
	jsonOut   bool
	serveAddr string
	workers   int
	queue     int
	timeout   time.Duration
	modelLoad string
	modelSave string
	why       string

	// Coordinator mode: -coordinator :port fronts the worker endpoints
	// parsed out of -workers (which is a pool size everywhere else).
	coordAddr   string
	workerAddrs []string

	simulate bool
	scenario string
	policy   string
	rounds   int
	cps, pps int
	simSeed  int64

	// mode is the modes entry the command line selects; set names every
	// flag it gave explicitly (flag.Visit order), so a flag the mode does
	// not read is rejected even at its default value.
	mode modeSpec
	set  []string
}

// modeSpec is one of clara's modes: the flag that selects it ("" for the
// default, single-NF analysis), what it does (for error messages), and
// every other flag it reads.
type modeSpec struct{ flag, does, reads string }

const trainFlags = " quick model-load model-save"

// modes is the one flag matrix, in precedence order. checkFlags rejects
// any flag given on the command line that the selected mode does not read:
// nothing is silently ignored and nothing silently takes precedence.
var modes = []modeSpec{
	{"why", "explains a lint rule", ""},
	{"coordinator", "fronts remote workers", "workers timeout"},
	{"serve", "runs the HTTP service", "workers queue timeout" + trainFlags},
	{"simulate", "runs the offload controller", "nf src scenario policy rounds cps pps sim-seed" + trainFlags},
	{"list", "lists the element library", ""},
	{"fleet", "analyzes the whole library", "workers" + trainFlags},
	{"lint", "is static and trains nothing", "nf src json"},
	{"", "", "nf src workload trace" + trainFlags},
}

func (m modeSpec) uses(name string) bool {
	return name == m.flag || slices.Contains(strings.Fields(m.reads), name)
}

// parseFlags parses a command line into cliFlags, recording which flags
// were given and which mode they select. It validates nothing beyond
// syntax; checkFlags does the rest.
func parseFlags(args []string) (cliFlags, *flag.FlagSet, error) {
	var f cliFlags
	fs := flag.NewFlagSet("clara", flag.ContinueOnError)
	fs.SetOutput(io.Discard) // main reports the error and the usage itself
	fs.StringVar(&f.nf, "nf", "", "analyze a library element by name")
	fs.StringVar(&f.src, "src", "", "analyze an NFC source file")
	fs.StringVar(&f.workload, "workload", "mix", "workload: small | large | mix")
	fs.StringVar(&f.trace, "trace", "", "profile over a recorded trace file instead of a synthetic workload")
	fs.BoolVar(&f.quick, "quick", false, "fast, lower-accuracy training")
	fs.BoolVar(&f.list, "list", false, "list library elements and exit")
	fs.BoolVar(&f.fleetMode, "fleet", false, "analyze-fleet mode: every library element under every standard workload")
	workers := fs.String("workers", "", "fleet worker pool size (0 = GOMAXPROCS); with -coordinator: comma-separated worker endpoints (host:port,...)")
	fs.BoolVar(&f.lintMode, "lint", false, "offloadability lint only (static, no training); exits 1 on error-severity findings")
	fs.BoolVar(&f.jsonOut, "json", false, "with -lint: emit diagnostics as a JSON array")
	fs.StringVar(&f.serveAddr, "serve", "", "serve the HTTP analysis API on this address (e.g. :8080)")
	fs.StringVar(&f.coordAddr, "coordinator", "", "serve the cluster coordinator on this address, fronting the -workers endpoints")
	fs.IntVar(&f.queue, "queue", 0, "with -serve: max concurrent analysis requests (0 = 4x workers)")
	fs.DurationVar(&f.timeout, "timeout", 0, "with -serve: per-request analysis deadline (0 = 30s)")
	fs.StringVar(&f.modelLoad, "model-load", "", "warm-start from a saved model bundle (falls back to training when missing or invalid)")
	fs.StringVar(&f.modelSave, "model-save", "", "after training, persist the model bundle to this path")
	fs.BoolVar(&f.simulate, "simulate", false, "run the offload-controller simulation and emit the NDJSON trajectory")
	fs.StringVar(&f.scenario, "scenario", "zipf", "with -simulate: traffic scenario (zipf | synflood | elephantmice)")
	fs.StringVar(&f.policy, "policy", "insight", "with -simulate: threshold policy (static | dynamic | insight)")
	fs.IntVar(&f.rounds, "rounds", 96, "with -simulate: rounds to simulate")
	fs.IntVar(&f.cps, "cps", 0, "with -simulate: override new flows per round (0 = scenario default)")
	fs.IntVar(&f.pps, "pps", 0, "with -simulate: override offered packets per round (0 = scenario default)")
	fs.Int64Var(&f.simSeed, "sim-seed", 7, "with -simulate: trajectory PRNG seed")
	fs.StringVar(&f.why, "why", "", "explain a lint rule (e.g. -why loop-varbound); 'list' enumerates all rules")
	if err := fs.Parse(args); err != nil {
		return f, fs, err
	}
	fs.Visit(func(fl *flag.Flag) { f.set = append(f.set, fl.Name) })
	for _, m := range modes {
		if fl := fs.Lookup(m.flag); fl == nil || fl.Value.String() != fl.DefValue {
			f.mode = m
			break
		}
	}
	var err error
	f.workers, f.workerAddrs, err = parseWorkersFlag(*workers, f.coordAddr != "")
	return f, fs, err
}

func main() {
	f, fs, err := parseFlags(os.Args[1:])
	if err == nil {
		err = checkFlags(f)
	}
	if err != nil {
		code := 0
		if !errors.Is(err, flag.ErrHelp) {
			fmt.Fprintf(os.Stderr, "clara: %v\n\n", err)
			code = 2
		}
		fs.SetOutput(os.Stderr)
		fs.Usage()
		os.Exit(code)
	}
	switch f.mode.flag {
	case "why":
		explainRule(f.why)
	case "coordinator":
		coordinate(f)
	case "serve":
		serve(f)
	case "simulate":
		runSimulate(f)
	case "list":
		fmt.Println("Built-in NF elements:")
		for _, e := range clara.Elements() {
			fmt.Printf("  %-14s %s (%d LoC)\n", e.Name, e.Desc, e.LoC())
		}
	case "fleet":
		analyzeFleet(f)
	case "lint":
		lint(f)
	default:
		analyze(f)
	}
}

// analyze is the default mode: one NF, one workload (synthetic, or a
// recorded trace), the insights report on stdout.
func analyze(f cliFlags) {
	job := f.job()
	tool, _ := obtainTool(context.Background(), f)
	if f.trace != "" {
		analyzeTrace(tool, job, f.trace)
		return
	}
	ins, err := tool.Analyze(job.Mod, job.PS, job.WL)
	if err != nil {
		fatal(err)
	}
	fmt.Print(ins.Report())
}

// analyzeTrace takes the workload from a recorded trace (the paper's pcap
// profile input) and runs the workload-specific analyses over it directly.
func analyzeTrace(tool *clara.Tool, job clara.FleetJob, path string) {
	if err := writeTraceReport(os.Stdout, tool, job, path); err != nil {
		fatal(err)
	}
}

// writeTraceReport profiles job over the trace at path and writes its
// state placement, one global per line in declaration order, and its
// coalescing packs to w.
func writeTraceReport(w io.Writer, tool *clara.Tool, job clara.FleetJob, path string) error {
	fh, err := os.Open(path)
	if err != nil {
		return err
	}
	pkts, err := traffic.ReadTrace(fh)
	fh.Close()
	if err != nil {
		return err
	}
	rep, err := traffic.NewReplayer(pkts)
	if err != nil {
		return err
	}
	prof, err := core.ProfileOnHostSource(job.Mod, job.PS, rep, len(pkts))
	if err != nil {
		return err
	}
	placement, err := core.SuggestPlacement(job.Mod, prof, tool.Params)
	if err != nil {
		return err
	}
	packs := core.SuggestPacks(job.Mod, prof, tool.Coalesce)
	fmt.Fprintf(w, "trace-driven analysis over %d recorded packets (%s):\n", len(pkts), path)
	fmt.Fprintln(w, "\nState placement:")
	for _, g := range job.Mod.Globals {
		fmt.Fprintf(w, "  %-16s -> %s\n", g.Name, placement[g.Name])
	}
	if len(packs) > 0 {
		fmt.Fprintln(w, "Coalescing packs:")
		for i, p := range packs {
			fmt.Fprintf(w, "  pack %d: %v\n", i, p)
		}
	}
	return nil
}

// parseWorkersFlag interprets -workers for the current mode: a worker
// pool size everywhere except -coordinator, where it carries the
// comma-separated worker endpoint list.
func parseWorkersFlag(raw string, coordinator bool) (int, []string, error) {
	if coordinator {
		var addrs []string
		for _, a := range strings.Split(raw, ",") {
			if a = strings.TrimSpace(a); a != "" {
				addrs = append(addrs, a)
			}
		}
		return 0, addrs, nil
	}
	if raw == "" {
		return 0, nil, nil
	}
	n, err := strconv.Atoi(raw)
	if err != nil {
		return 0, nil, fmt.Errorf("-workers: expected a pool size, got %q (endpoint lists go with -coordinator)", raw)
	}
	return n, nil, nil
}

// checkFlags rejects incoherent flag combinations up front (main exits 2
// with usage on error) instead of silently ignoring the extra flags.
func checkFlags(f cliFlags) error {
	if f.workers < 0 {
		return fmt.Errorf("-workers must be >= 0 (got %d)", f.workers)
	}
	if f.queue < 0 {
		return fmt.Errorf("-queue must be >= 0 (got %d)", f.queue)
	}
	if f.timeout < 0 {
		return fmt.Errorf("-timeout must be >= 0 (got %s)", f.timeout)
	}
	if f.nf != "" && f.src != "" {
		return fmt.Errorf("-nf and -src are mutually exclusive; pick one input")
	}
	for _, name := range f.set {
		switch {
		case f.mode.uses(name):
		case name == "queue" && f.mode.flag == "coordinator":
			return fmt.Errorf("-queue does not apply to -coordinator (each worker bounds its own admission)")
		case name == "queue" || name == "timeout":
			return fmt.Errorf("-queue and -timeout only apply to -serve or -coordinator")
		default:
			return conflict(f.mode, name)
		}
	}
	switch f.mode.flag {
	case "coordinator":
		if len(f.workerAddrs) == 0 {
			return fmt.Errorf("-coordinator requires -workers host1:port1,host2:port2")
		}
	case "simulate":
		if f.rounds <= 0 {
			return fmt.Errorf("-rounds must be positive (got %d)", f.rounds)
		}
		if f.cps < 0 {
			return fmt.Errorf("-cps must be >= 0 (got %d)", f.cps)
		}
		if f.pps < 0 {
			return fmt.Errorf("-pps must be >= 0 (got %d)", f.pps)
		}
		if _, err := offload.ScenarioByName(f.scenario); err != nil {
			return fmt.Errorf("-scenario: %v", err)
		}
		if _, err := offload.PolicyByName(f.policy); err != nil {
			return fmt.Errorf("-policy: %v", err)
		}
		for _, name := range f.set {
			if f.nf == "" && f.src == "" && slices.Contains(strings.Fields(trainFlags), name) {
				return fmt.Errorf("-%s only applies to -simulate with -nf or -src (without them nothing is trained)", name)
			}
		}
	case "lint", "":
		if f.nf == "" && f.src == "" {
			return fmt.Errorf("need -nf or -src")
		}
		if f.trace != "" && slices.Contains(f.set, "workload") {
			return fmt.Errorf("-workload does not apply with -trace (the recorded trace is the workload)")
		}
	}
	return nil
}

// conflict words the rejection of a flag the selected mode does not read.
// -model-load and -model-save may name the same file: load-or-train-and-
// save is the natural caching pattern, and every mode that reads one reads
// both.
func conflict(m modeSpec, name string) error {
	var why string
	var readers []string
	for _, o := range modes {
		switch {
		case o.flag == name:
			why = "modes are mutually exclusive"
		case !o.uses(name):
		case o.flag == "":
			readers = append(readers, "-nf/-src analysis")
		default:
			readers = append(readers, "-"+o.flag)
		}
	}
	if why == "" {
		why = fmt.Sprintf("-%s only applies to %s", name, strings.Join(readers, ", "))
	}
	if m.flag == "" {
		return errors.New(why)
	}
	return fmt.Errorf("-%s %s; it cannot be combined with -%s (%s)", m.flag, m.does, name, why)
}

// runSimulate is the -simulate mode: build the scenario, derive the NIC
// capacities from a per-NF prediction, seed or hand-set the threshold
// policy, run the controller, and emit the NDJSON trajectory on stdout
// (summary line on stderr).
//
// With -nf/-src the prediction comes from a trained predictor (honoring
// -quick/-model-load/-model-save) for that NF — the full insight-seeding
// path. Without them a nominal mid-weight prediction stands in, so the
// baseline policies and CI smoke runs need no training at all.
func runSimulate(f cliFlags) {
	sc, err := offload.ScenarioByName(f.scenario)
	if err != nil {
		fatal(err)
	}
	if f.cps > 0 {
		sc.CPS = f.cps
	}
	if f.pps > 0 {
		sc.PPS = f.pps
	}
	kind, err := offload.PolicyByName(f.policy)
	if err != nil {
		fatal(err)
	}

	params := clara.DefaultParams()
	mp := offload.NominalPrediction()
	var sp *analysis.StateProfile
	if f.nf != "" || f.src != "" {
		mod := f.job().Mod
		tool, _ := obtainTool(context.Background(), f)
		pred, err := tool.Predictor.PredictModule(mod, clara.AccelConfig{})
		if err != nil {
			fatal(err)
		}
		mp = pred
		params = tool.Params
		// The static state profile refines the fast/slow split: only
		// header-keyed state is fast-path eligible.
		sp = analysis.ComputeStateProfile(mod)
	}

	caps := offload.DeriveCapacitiesProfile(params, mp, sp)
	var pol offload.PolicyConfig
	if kind == offload.PolicyInsight {
		pol = offload.SeedPolicy(sc, caps)
	} else {
		pol = offload.BaselinePolicy(kind, sc)
	}
	traj, err := offload.Simulate(offload.Config{
		Scenario: sc, Capacity: caps, Policy: pol, Rounds: f.rounds, Seed: f.simSeed,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Print(traj.NDJSON())
	fmt.Fprintln(os.Stderr, "clara:", traj.String())
}

// request words -nf / -src / -workload as the request an HTTP client
// would send, so the CLI resolves elements, source and workloads through
// the servers' resolver and fails with its errors.
func (f cliFlags) request() server.AnalyzeRequest {
	req := server.AnalyzeRequest{NF: f.nf, Workload: f.workload}
	if f.src != "" {
		src, err := os.ReadFile(f.src)
		if err != nil {
			fatal(err)
		}
		req.Src, req.Name = string(src), f.src
	}
	return req
}

// job resolves the single NF the flags name: compiled module, state
// seeding, workload.
func (f cliFlags) job() clara.FleetJob {
	req := f.request()
	jobs, err := req.Jobs()
	if err != nil {
		fatal(err)
	}
	return jobs[0]
}

func (f cliFlags) trainConfig() clara.TrainConfig {
	return clara.TrainConfig{Quick: f.quick, Seed: 42}
}

// warmStart loads the -model-load bundle when it is valid for this build
// and config; a missing or rejected bundle is reported and training takes
// over.
func warmStart(f cliFlags) (*clara.Tool, clara.ModelInfo, bool) {
	if f.modelLoad == "" {
		return nil, clara.ModelInfo{}, false
	}
	tool, hash, err := clara.LoadTool(f.modelLoad, f.trainConfig())
	if err != nil {
		fmt.Fprintf(os.Stderr, "clara: cannot warm start from %s (%v); training instead\n", f.modelLoad, err)
		return nil, clara.ModelInfo{}, false
	}
	fmt.Fprintf(os.Stderr, "clara: warm start from %s (model %.12s…)\n", f.modelLoad, hash)
	return tool, clara.ModelInfo{Hash: hash, WarmStart: true}, true
}

// trainTool trains from scratch and persists the bundle to -model-save.
// A failed save is reported, not returned: the trained tool is what the
// run was for, and it must not take down a server that just became ready.
func trainTool(ctx context.Context, f cliFlags) (*clara.Tool, clara.ModelInfo, error) {
	fmt.Fprintln(os.Stderr, "training Clara (predictor + algorithm ID + scale-out model)...")
	start := time.Now()
	tool, err := clara.TrainContext(ctx, f.trainConfig())
	if err != nil {
		return nil, clara.ModelInfo{}, err
	}
	info := clara.ModelInfo{TrainSeconds: time.Since(start).Seconds()}
	if f.modelSave != "" {
		hash, err := clara.SaveTool(f.modelSave, tool, f.trainConfig(), info.TrainSeconds)
		if err != nil {
			fmt.Fprintf(os.Stderr, "clara: saving model bundle: %v\n", err)
		} else {
			fmt.Fprintf(os.Stderr, "clara: saved model bundle to %s (model %.12s…)\n", f.modelSave, hash)
			info.Hash = hash
		}
	}
	return tool, info, nil
}

// obtainTool is how a one-shot mode gets its tool: warm start, else train
// now.
func obtainTool(ctx context.Context, f cliFlags) (*clara.Tool, clara.ModelInfo) {
	if tool, info, ok := warmStart(f); ok {
		return tool, info
	}
	tool, info, err := trainTool(ctx, f)
	if err != nil {
		fatal(err)
	}
	return tool, info
}

// serve runs the HTTP analysis service until SIGINT/SIGTERM, draining
// in-flight analyses before exiting. With a valid -model-load bundle the
// server warm-starts and is ready before the first request; otherwise it
// binds immediately and trains in the background, answering /healthz 503
// "training" until the model is ready.
func serve(f cliFlags) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	scfg := clara.ServerConfig{Workers: f.workers, QueueDepth: f.queue, RequestTimeout: f.timeout}
	if tool, info, ok := warmStart(f); ok {
		scfg.Tool, scfg.Model = tool, info
	} else {
		scfg.Train = func(ctx context.Context) (*clara.Tool, clara.ModelInfo, error) {
			tool, info, err := trainTool(ctx, f)
			if err == nil {
				fmt.Fprintf(os.Stderr, "clara: model ready (trained in %.1fs)\n", info.TrainSeconds)
			}
			return tool, info, err
		}
	}
	srv, err := clara.NewServer(scfg)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "clara: serving on %s\n", f.serveAddr)
	if err := srv.ListenAndServe(ctx, f.serveAddr); err != nil {
		fatal(err)
	}
	fmt.Fprintln(os.Stderr, "clara: shut down cleanly")
}

// coordinate runs the cluster coordinator until SIGINT/SIGTERM: a
// stateless front that routes analysis jobs across the given -serve
// workers by module content hash (see internal/cluster). -timeout caps
// one forwarded sub-batch request.
func coordinate(f cliFlags) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	c, err := clara.NewCoordinator(clara.ClusterConfig{Workers: f.workerAddrs, RequestTimeout: f.timeout})
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "clara: coordinating %d worker(s) on %s\n", len(f.workerAddrs), f.coordAddr)
	if err := c.ListenAndServe(ctx, f.coordAddr); err != nil {
		fatal(err)
	}
	fmt.Fprintln(os.Stderr, "clara: shut down cleanly")
}

// explainRule is the -why mode: print the catalog entry for one lint
// rule (what it means, why it matters on a SmartNIC, what to do), or the
// whole catalog for "list". Unknown rules exit 2 with the valid names.
func explainRule(rule string) {
	if rule == "list" {
		for _, d := range analysis.RuleDocs {
			fmt.Printf("%-18s %-8s %s\n", d.Rule, d.Severity, d.Summary)
		}
		return
	}
	d, ok := analysis.DocFor(rule)
	if !ok {
		fmt.Fprintf(os.Stderr, "clara: unknown lint rule %q; known rules:\n", rule)
		for _, d := range analysis.RuleDocs {
			fmt.Fprintf(os.Stderr, "  %s\n", d.Rule)
		}
		os.Exit(2)
	}
	fmt.Printf("%s (%s)\n\n%s\n\n%s\n", d.Rule, d.Severity, d.Summary, d.Detail)
}

// lint runs the static offloadability linter — no training, no
// workload — and exits non-zero when any error-severity finding exists.
func lint(f cliFlags) {
	req := f.request()
	name, src, err := (&server.LintRequest{NF: req.NF, Src: req.Src, Name: req.Name}).Source()
	if err != nil {
		fatal(err)
	}
	ds, err := clara.LintNF(name, src)
	if err != nil {
		fatal(err)
	}
	s := clara.SummarizeDiagnostics(ds)
	if f.jsonOut {
		blob, err := json.MarshalIndent(ds, "", "  ")
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(blob))
	} else if len(ds) == 0 {
		fmt.Printf("%s: no findings\n", name)
	} else {
		fmt.Printf("%s: %d error(s), %d warning(s), %d note(s)\n", name, s.Errors, s.Warnings, s.Infos)
		fmt.Print(clara.RenderDiagnostics(ds))
	}
	if s.Errors > 0 {
		os.Exit(1)
	}
}

// analyzeFleet runs the whole element library (Table 2 order) under the
// three standard workloads on a bounded worker pool and prints the
// summary table plus the fleet's cache/latency metrics.
func analyzeFleet(f cliFlags) {
	tool, _ := obtainTool(context.Background(), f)
	jobs, err := clara.LibraryJobs()
	if err != nil {
		fatal(err)
	}
	fl, err := clara.NewFleet(tool, clara.FleetConfig{Workers: f.workers})
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "analyzing %d jobs on %d workers...\n", len(jobs), fl.Workers())
	results, err := fl.Run(jobs)
	if err != nil {
		fatal(err)
	}
	fmt.Print(clara.FleetSummary(results))
	fmt.Printf("\n%s", fl.Stats())
	for _, r := range results {
		if r.Err != nil {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "clara:", err)
	os.Exit(1)
}
