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
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"clara"
	"clara/internal/analysis"
	"clara/internal/core"
	"clara/internal/offload"
	"clara/internal/traffic"
)

// cliFlags carries every parsed flag through validation — a struct so
// checkFlags is a plain testable function instead of a positional-arg
// wall.
type cliFlags struct {
	nf, src   string
	workload  string
	trace     string
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
	// simFlagsSet lists which simulation-only flags the user set
	// explicitly (via flag.Visit) so they can be rejected outside
	// -simulate even at their default values.
	simFlagsSet []string
}

func main() {
	var (
		nfName    = flag.String("nf", "", "analyze a library element by name")
		srcPath   = flag.String("src", "", "analyze an NFC source file")
		workload  = flag.String("workload", "mix", "workload: small | large | mix")
		tracePath = flag.String("trace", "", "profile over a recorded trace file instead of a synthetic workload")
		quick     = flag.Bool("quick", false, "fast, lower-accuracy training")
		list      = flag.Bool("list", false, "list library elements and exit")
		fleetMode = flag.Bool("fleet", false, "analyze-fleet mode: every library element under every standard workload")
		workers   = flag.String("workers", "", "fleet worker pool size (0 = GOMAXPROCS); with -coordinator: comma-separated worker endpoints (host:port,...)")
		lintMode  = flag.Bool("lint", false, "offloadability lint only (static, no training); exits 1 on error-severity findings")
		jsonOut   = flag.Bool("json", false, "with -lint: emit diagnostics as a JSON array")
		serveAddr = flag.String("serve", "", "serve the HTTP analysis API on this address (e.g. :8080)")
		coordAddr = flag.String("coordinator", "", "serve the cluster coordinator on this address, fronting the -workers endpoints")
		queue     = flag.Int("queue", 0, "with -serve: max concurrent analysis requests (0 = 4x workers)")
		timeout   = flag.Duration("timeout", 0, "with -serve: per-request analysis deadline (0 = 30s)")
		modelLoad = flag.String("model-load", "", "warm-start from a saved model bundle (falls back to training when missing or invalid)")
		modelSave = flag.String("model-save", "", "after training, persist the model bundle to this path")
		quantize  = flag.Bool("quantize", false, "serve predictions from the int8-quantized LSTM path")
		simulate  = flag.Bool("simulate", false, "run the offload-controller simulation and emit the NDJSON trajectory")
		scenario  = flag.String("scenario", "zipf", "with -simulate: traffic scenario (zipf | synflood | elephantmice)")
		policy    = flag.String("policy", "insight", "with -simulate: threshold policy (static | dynamic | insight)")
		rounds    = flag.Int("rounds", 96, "with -simulate: rounds to simulate")
		cps       = flag.Int("cps", 0, "with -simulate: override new flows per round (0 = scenario default)")
		pps       = flag.Int("pps", 0, "with -simulate: override offered packets per round (0 = scenario default)")
		simSeed   = flag.Int64("sim-seed", 7, "with -simulate: trajectory PRNG seed")
		whyRule   = flag.String("why", "", "explain a lint rule (e.g. -why loop-varbound); 'list' enumerates all rules")
	)
	flag.Parse()

	if *whyRule != "" {
		explainRule(*whyRule)
		return
	}

	nWorkers, workerAddrs, werr := parseWorkersFlag(*workers, *coordAddr != "")
	if werr != nil {
		fmt.Fprintf(os.Stderr, "clara: %v\n\n", werr)
		flag.Usage()
		os.Exit(2)
	}
	f := cliFlags{
		nf: *nfName, src: *srcPath, workload: *workload, trace: *tracePath,
		list: *list, fleetMode: *fleetMode, lintMode: *lintMode, jsonOut: *jsonOut,
		serveAddr: *serveAddr, workers: nWorkers, queue: *queue, timeout: *timeout,
		modelLoad: *modelLoad, modelSave: *modelSave,
		coordAddr: *coordAddr, workerAddrs: workerAddrs,
		simulate: *simulate, scenario: *scenario, policy: *policy,
		rounds: *rounds, cps: *cps, pps: *pps, simSeed: *simSeed,
	}
	simOnly := map[string]bool{"scenario": true, "policy": true, "rounds": true, "cps": true, "pps": true, "sim-seed": true}
	flag.Visit(func(fl *flag.Flag) {
		if simOnly[fl.Name] {
			f.simFlagsSet = append(f.simFlagsSet, "-"+fl.Name)
		}
	})
	if err := checkFlags(f); err != nil {
		fmt.Fprintf(os.Stderr, "clara: %v\n\n", err)
		flag.Usage()
		os.Exit(2)
	}

	if *coordAddr != "" {
		coordinate(*coordAddr, workerAddrs, *timeout)
		return
	}

	if *serveAddr != "" {
		serve(*serveAddr, nWorkers, *queue, *timeout, *quick, *quantize, *modelLoad, *modelSave)
		return
	}

	if *simulate {
		runSimulate(f, *quick, *quantize)
		return
	}

	if *list {
		fmt.Println("Built-in NF elements:")
		for _, e := range clara.Elements() {
			fmt.Printf("  %-14s %s (%d LoC)\n", e.Name, e.Desc, e.LoC())
		}
		return
	}

	if *fleetMode {
		analyzeFleet(nWorkers, *quick, *quantize, *modelLoad, *modelSave)
		return
	}

	if *lintMode {
		name, src, err := pickSource(*nfName, *srcPath)
		if err != nil {
			fatal(err)
		}
		lint(name, src, *jsonOut)
		return
	}

	wl, err := pickWorkload(*workload)
	if err != nil {
		fatal(err)
	}

	if *nfName == "" && *srcPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	mod, ps, err := resolveModule(*nfName, *srcPath)
	if err != nil {
		fatal(err)
	}

	tool, _ := obtainTool(context.Background(), *quick, *quantize, *modelLoad, *modelSave)

	if *tracePath != "" {
		// Workload comes from a recorded trace (the paper's pcap profile
		// input): run the workload-specific analyses over it directly.
		f, err := os.Open(*tracePath)
		if err != nil {
			fatal(err)
		}
		pkts, err := traffic.ReadTrace(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		rep, err := traffic.NewReplayer(pkts)
		if err != nil {
			fatal(err)
		}
		prof, err := core.ProfileOnHostSource(mod, ps, rep, len(pkts))
		if err != nil {
			fatal(err)
		}
		placement, err := core.SuggestPlacement(mod, prof, tool.Params)
		if err != nil {
			fatal(err)
		}
		packs := core.SuggestPacks(mod, prof, tool.Coalesce)
		fmt.Printf("trace-driven analysis over %d recorded packets (%s):\n", len(pkts), *tracePath)
		fmt.Println("\nState placement:")
		for g, r := range placement {
			fmt.Printf("  %-16s -> %s\n", g, r)
		}
		if len(packs) > 0 {
			fmt.Println("Coalescing packs:")
			for i, p := range packs {
				fmt.Printf("  pack %d: %v\n", i, p)
			}
		}
		return
	}

	ins, err := tool.Analyze(mod, ps, wl)
	if err != nil {
		fatal(err)
	}
	fmt.Print(ins.Report())
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
	if f.jsonOut && !f.lintMode {
		return fmt.Errorf("-json only applies to -lint output")
	}
	if (f.modelLoad != "" || f.modelSave != "") && (f.lintMode || f.list) {
		return fmt.Errorf("-model-load/-model-save only apply to modes that train a model (analyze, -fleet, -serve, -simulate)")
	}
	// -model-load and -model-save may name the same file: load-or-train-
	// and-save is the natural caching pattern (save only runs after an
	// actual training pass, never after a successful warm start).
	if f.workers < 0 {
		return fmt.Errorf("-workers must be >= 0 (got %d)", f.workers)
	}
	if f.fleetMode && (f.nf != "" || f.src != "") {
		return fmt.Errorf("-fleet analyzes the whole library; it cannot be combined with -nf or -src")
	}
	if f.fleetMode && f.lintMode {
		return fmt.Errorf("-fleet and -lint are mutually exclusive modes")
	}
	if f.nf != "" && f.src != "" {
		return fmt.Errorf("-nf and -src are mutually exclusive; pick one input")
	}
	if f.coordAddr != "" {
		incompatible := []struct {
			name string
			set  bool
		}{
			{"-serve", f.serveAddr != ""}, {"-fleet", f.fleetMode}, {"-lint", f.lintMode},
			{"-list", f.list}, {"-nf", f.nf != ""}, {"-src", f.src != ""},
			{"-trace", f.trace != ""}, {"-simulate", f.simulate},
			{"-model-load", f.modelLoad != ""}, {"-model-save", f.modelSave != ""},
		}
		for _, fl := range incompatible {
			if fl.set {
				return fmt.Errorf("-coordinator fronts remote workers; it cannot be combined with %s", fl.name)
			}
		}
		if len(f.workerAddrs) == 0 {
			return fmt.Errorf("-coordinator requires -workers host1:port1,host2:port2")
		}
		if f.queue != 0 {
			return fmt.Errorf("-queue does not apply to -coordinator (each worker bounds its own admission)")
		}
	}
	if f.serveAddr != "" {
		incompatible := []struct {
			name string
			set  bool
		}{
			{"-fleet", f.fleetMode}, {"-lint", f.lintMode}, {"-list", f.list},
			{"-nf", f.nf != ""}, {"-src", f.src != ""}, {"-trace", f.trace != ""},
			{"-simulate", f.simulate},
		}
		for _, fl := range incompatible {
			if fl.set {
				return fmt.Errorf("-serve runs the HTTP service; it cannot be combined with %s", fl.name)
			}
		}
	} else if f.coordAddr == "" && (f.queue != 0 || f.timeout != 0) {
		return fmt.Errorf("-queue and -timeout only apply to -serve or -coordinator")
	}
	if f.queue < 0 {
		return fmt.Errorf("-queue must be >= 0 (got %d)", f.queue)
	}
	if f.timeout < 0 {
		return fmt.Errorf("-timeout must be >= 0 (got %s)", f.timeout)
	}
	if f.simulate {
		incompatible := []struct {
			name string
			set  bool
		}{
			{"-fleet", f.fleetMode}, {"-lint", f.lintMode}, {"-list", f.list},
			{"-trace", f.trace != ""},
		}
		for _, fl := range incompatible {
			if fl.set {
				return fmt.Errorf("-simulate runs the offload controller; it cannot be combined with %s", fl.name)
			}
		}
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
	} else if len(f.simFlagsSet) > 0 {
		return fmt.Errorf("%s only applies to -simulate", f.simFlagsSet[0])
	}
	return nil
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
func runSimulate(f cliFlags, quick, quantize bool) {
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
		mod, _, err := resolveModule(f.nf, f.src)
		if err != nil {
			fatal(err)
		}
		tool, _ := obtainTool(context.Background(), quick, quantize, f.modelLoad, f.modelSave)
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

// resolveModule resolves -nf/-src to a compiled module plus its profile
// setup (state seeding for library elements).
func resolveModule(nfName, srcPath string) (*clara.Module, clara.ProfileSetup, error) {
	switch {
	case nfName != "":
		e := clara.GetElement(nfName)
		if e == nil {
			return nil, clara.ProfileSetup{}, fmt.Errorf("unknown element %q (try -list)", nfName)
		}
		m, err := e.Module()
		if err != nil {
			return nil, clara.ProfileSetup{}, err
		}
		return m, clara.ProfileSetup{Setup: e.Setup, LPMTable: e.Routes}, nil
	case srcPath != "":
		src, err := os.ReadFile(srcPath)
		if err != nil {
			return nil, clara.ProfileSetup{}, err
		}
		m, err := clara.CompileNF(srcPath, string(src))
		if err != nil {
			return nil, clara.ProfileSetup{}, err
		}
		return m, clara.ProfileSetup{}, nil
	default:
		return nil, clara.ProfileSetup{}, fmt.Errorf("need -nf or -src")
	}
}

// obtainTool resolves the trained tool for a training mode: warm-start
// from -model-load when the bundle is valid for this build and config,
// otherwise train from scratch (persisting to -model-save when set).
func obtainTool(ctx context.Context, quick, quantize bool, loadPath, savePath string) (*clara.Tool, clara.ModelInfo) {
	cfg := clara.TrainConfig{Quick: quick, Seed: 42, Quantize: quantize}
	if loadPath != "" {
		tool, hash, err := clara.LoadTool(loadPath, cfg)
		if err == nil {
			fmt.Fprintf(os.Stderr, "clara: warm start from %s (model %.12s…)\n", loadPath, hash)
			return tool, clara.ModelInfo{Hash: hash, WarmStart: true}
		}
		fmt.Fprintf(os.Stderr, "clara: cannot warm start from %s (%v); training instead\n", loadPath, err)
	}
	fmt.Fprintln(os.Stderr, "training Clara (predictor + algorithm ID + scale-out model)...")
	start := time.Now()
	tool, err := clara.TrainContext(ctx, cfg)
	if err != nil {
		fatal(err)
	}
	info := clara.ModelInfo{TrainSeconds: time.Since(start).Seconds()}
	if savePath != "" {
		hash, err := clara.SaveTool(savePath, tool, cfg, info.TrainSeconds)
		if err != nil {
			fatal(fmt.Errorf("saving model bundle: %w", err))
		}
		fmt.Fprintf(os.Stderr, "clara: saved model bundle to %s (model %.12s…)\n", savePath, hash)
		info.Hash = hash
	}
	return tool, info
}

// serve runs the HTTP analysis service until SIGINT/SIGTERM, draining
// in-flight analyses before exiting. With a valid -model-load bundle the
// server warm-starts and is ready before the first request; otherwise it
// binds immediately and trains in the background, answering /healthz 503
// "training" until the model is ready.
func serve(addr string, workers, queue int, timeout time.Duration, quick, quantize bool, loadPath, savePath string) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	cfg := clara.TrainConfig{Quick: quick, Seed: 42, Quantize: quantize}
	scfg := clara.ServerConfig{Workers: workers, QueueDepth: queue, RequestTimeout: timeout}
	if loadPath != "" {
		tool, hash, err := clara.LoadTool(loadPath, cfg)
		if err == nil {
			fmt.Fprintf(os.Stderr, "clara: warm start from %s (model %.12s…)\n", loadPath, hash)
			scfg.Tool = tool
			scfg.Model = clara.ModelInfo{Hash: hash, WarmStart: true}
		} else {
			fmt.Fprintf(os.Stderr, "clara: cannot warm start from %s (%v); training in background\n", loadPath, err)
		}
	}
	if scfg.Tool == nil {
		scfg.Train = func(ctx context.Context) (*clara.Tool, clara.ModelInfo, error) {
			fmt.Fprintln(os.Stderr, "training Clara (predictor + algorithm ID + scale-out model)...")
			start := time.Now()
			tool, err := clara.TrainContext(ctx, cfg)
			if err != nil {
				return nil, clara.ModelInfo{}, err
			}
			info := clara.ModelInfo{TrainSeconds: time.Since(start).Seconds()}
			if savePath != "" {
				hash, err := clara.SaveTool(savePath, tool, cfg, info.TrainSeconds)
				if err != nil {
					// A failed save must not take down a trained server.
					fmt.Fprintf(os.Stderr, "clara: saving model bundle: %v\n", err)
				} else {
					fmt.Fprintf(os.Stderr, "clara: saved model bundle to %s (model %.12s…)\n", savePath, hash)
					info.Hash = hash
				}
			}
			fmt.Fprintf(os.Stderr, "clara: model ready (trained in %.1fs)\n", info.TrainSeconds)
			return tool, info, nil
		}
	}
	srv, err := clara.NewServer(scfg)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "clara: serving on %s\n", addr)
	if err := srv.ListenAndServe(ctx, addr); err != nil {
		fatal(err)
	}
	fmt.Fprintln(os.Stderr, "clara: shut down cleanly")
}

// coordinate runs the cluster coordinator until SIGINT/SIGTERM: a
// stateless front that routes analysis jobs across the given -serve
// workers by module content hash (see internal/cluster). -timeout caps
// one forwarded sub-batch request.
func coordinate(addr string, workers []string, timeout time.Duration) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	c, err := clara.NewCoordinator(clara.ClusterConfig{Workers: workers, RequestTimeout: timeout})
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "clara: coordinating %d worker(s) on %s\n", len(workers), addr)
	if err := c.ListenAndServe(ctx, addr); err != nil {
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

// pickSource resolves -nf/-src to a (name, NFC source) pair.
func pickSource(nfName, srcPath string) (string, string, error) {
	switch {
	case nfName != "":
		e := clara.GetElement(nfName)
		if e == nil {
			return "", "", fmt.Errorf("unknown element %q (try -list)", nfName)
		}
		return e.Name, e.Src, nil
	case srcPath != "":
		src, err := os.ReadFile(srcPath)
		if err != nil {
			return "", "", err
		}
		return srcPath, string(src), nil
	default:
		return "", "", fmt.Errorf("-lint needs -nf or -src")
	}
}

// lint runs the static offloadability linter — no training, no
// workload — and exits non-zero when any error-severity finding exists.
func lint(name, src string, jsonOut bool) {
	ds, err := clara.LintNF(name, src)
	if err != nil {
		fatal(err)
	}
	if jsonOut {
		blob, err := json.MarshalIndent(ds, "", "  ")
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(blob))
	} else if len(ds) == 0 {
		fmt.Printf("%s: no findings\n", name)
	} else {
		s := clara.SummarizeDiagnostics(ds)
		fmt.Printf("%s: %d error(s), %d warning(s), %d note(s)\n", name, s.Errors, s.Warnings, s.Infos)
		fmt.Print(clara.RenderDiagnostics(ds))
	}
	if clara.SummarizeDiagnostics(ds).Errors > 0 {
		os.Exit(1)
	}
}

// analyzeFleet runs the whole element library (Table 2 order) under the
// three standard workloads on a bounded worker pool and prints the
// summary table plus the fleet's cache/latency metrics.
func analyzeFleet(workers int, quick, quantize bool, loadPath, savePath string) {
	tool, _ := obtainTool(context.Background(), quick, quantize, loadPath, savePath)
	jobs, err := clara.LibraryJobs()
	if err != nil {
		fatal(err)
	}
	fl, err := clara.NewFleet(tool, clara.FleetConfig{Workers: workers})
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

func pickWorkload(name string) (traffic.Spec, error) {
	switch name {
	case "small":
		return traffic.SmallFlows, nil
	case "large":
		return traffic.LargeFlows, nil
	case "mix":
		return traffic.MediumMix, nil
	default:
		return traffic.Spec{}, fmt.Errorf("unknown workload %q", name)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "clara:", err)
	os.Exit(1)
}
