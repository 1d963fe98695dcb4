// Command perfbench measures the training/serving fast path end to end
// and writes the numbers as JSON (the committed BENCH_PR6.json):
//
//   - cold-start: full quick-mode tool training (corpus synthesis +
//     LSTM predictor + algorithm ID + scale-out model);
//   - warm-start: persisting the trained tool as a model bundle and
//     loading it back — the `clara -serve -model-load` startup path;
//   - train throughput: LSTM minibatch training samples/sec at the
//     bundle's batch size;
//   - predict latency: µs per basic block across the whole element
//     library, module by module;
//   - batched predict latency: the same library predicted in one
//     PredictModules sweep (f32 and int8-quantized paths);
//   - quantized accuracy drift: worst per-element WMAPE delta between
//     the int8 and f32 paths;
//   - fleet throughput: library × workloads jobs/sec on the analysis
//     pool (cold prediction cache);
//   - offload convergence: rounds-to-steady-state of the online offload
//     controller per threshold policy per traffic scenario, with the
//     insight policy seeded from the trained predictor's prediction for
//     a real library NF (the PR7 headline comparison);
//   - cluster throughput: the same analysis batch served through an
//     in-process coordinator fronting 1, 2, and 4 single-threaded
//     workers (the PR9 scaling grid; speedup_vs_1 is recorded honestly,
//     so a 1-CPU runner reports ~1x);
//   - host profiling: µs per workload packet through the interpreter.
//
// Usage:
//
//	perfbench [-quick] [-out BENCH_PR10.json]
//
// -quick shrinks the measured workloads for CI smoke runs; the
// committed numbers come from a run without it.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"clara"
	"clara/internal/core"
	"clara/internal/ml"
	"clara/internal/niccc"
	"clara/internal/offload"
	"clara/internal/traffic"
)

// report is the BENCH_PR7.json schema.
type report struct {
	GeneratedUnix      int64   `json:"generated_unix"`
	GoMaxProcs         int     `json:"gomaxprocs"`
	Quick              bool    `json:"quick"`
	ColdStartSeconds   float64 `json:"cold_start_seconds"`
	WarmStartSeconds   float64 `json:"warm_start_seconds"`
	BundleBytes        int64   `json:"bundle_bytes"`
	ModelHash          string  `json:"model_hash"`
	TrainSamplesPerSec float64 `json:"train_samples_per_sec"`
	PredictUsPerBlock  float64 `json:"predict_us_per_block"`
	// PredictBatchUsPerBlock amortizes one PredictModules sweep over the
	// whole element library; PredictInt8UsPerBlock is the same sweep on
	// the int8-quantized path.
	PredictBatchUsPerBlock float64 `json:"predict_batch_us_per_block"`
	PredictInt8UsPerBlock  float64 `json:"predict_int8_us_per_block"`
	// QuantizedWmapeDrift is the worst per-element |WMAPE(int8) -
	// WMAPE(f32)| (the accuracy gate pins it below 0.005).
	QuantizedWmapeDrift float64 `json:"quantized_wmape_drift"`
	FleetJobsPerSec     float64 `json:"fleet_jobs_per_sec"`
	// ProfileUsPerPacket is host profiling's per-packet cost (the
	// fleet's hot loop).
	ProfileUsPerPacket float64 `json:"profile_us_per_packet"`
	// ConvergenceNF is the library element whose trained prediction
	// derives the NIC capacities and seeds the insight policy; the
	// Convergence rows compare rounds-to-steady-state (drop rate <= 1%)
	// across the three threshold policies on each traffic scenario
	// (convergence_round -1 = never converged within the run).
	ConvergenceNF     string           `json:"convergence_nf"`
	ConvergenceRounds int              `json:"convergence_rounds"`
	Convergence       []convergenceRow `json:"convergence"`
	// Cluster is the coordinator/worker scaling grid: hot-cache batch
	// throughput through an in-process cluster of N workers.
	Cluster []clusterRow `json:"cluster"`
}

// clusterRow is one worker-count cell of the cluster scaling grid.
type clusterRow struct {
	Workers    int     `json:"workers"`
	JobsPerSec float64 `json:"jobs_per_sec"`
	// SpeedupVs1 is JobsPerSec over the 1-worker row's — the scaling
	// headline. On a single-CPU host the in-process workers share one
	// core, so ~1.0 is the honest expectation there.
	SpeedupVs1 float64 `json:"speedup_vs_1"`
	// CacheHitRate is the merged cluster hit rate after the measured
	// batches: content-hash routing should keep it near 1.0 once warm.
	CacheHitRate float64 `json:"cache_hit_rate"`
}

// convergenceRow is one policy × scenario cell of the offload-controller
// comparison.
type convergenceRow struct {
	Scenario         string  `json:"scenario"`
	Policy           string  `json:"policy"`
	InitialThreshold int     `json:"initial_threshold"`
	FinalThreshold   int     `json:"final_threshold"`
	ConvergenceRound int     `json:"convergence_round"`
	FinalDropRate    float64 `json:"final_drop_rate"`
	FinalOffloadRate float64 `json:"final_offload_rate"`
}

func main() {
	quick := flag.Bool("quick", false, "smaller measured workloads (CI smoke)")
	out := flag.String("out", "BENCH_PR10.json", "output JSON path")
	flag.Parse()

	rep := report{
		GeneratedUnix: time.Now().Unix(),
		GoMaxProcs:    runtime.GOMAXPROCS(0),
		Quick:         *quick,
	}
	cfg := clara.TrainConfig{Quick: true, Seed: 42}

	// Cold start: the whole training pipeline, as `clara -serve` without
	// a bundle would run it.
	fmt.Fprintln(os.Stderr, "perfbench: cold-start training...")
	t0 := time.Now()
	tool, err := clara.TrainContext(context.Background(), cfg)
	if err != nil {
		fatal(err)
	}
	rep.ColdStartSeconds = time.Since(t0).Seconds()

	// Warm start: bundle round trip — `-model-save` then `-model-load`.
	dir, err := os.MkdirTemp("", "perfbench-*")
	if err != nil {
		fatal(err)
	}
	defer os.RemoveAll(dir)
	bundlePath := filepath.Join(dir, "model.json")
	if _, err := clara.SaveTool(bundlePath, tool, cfg, rep.ColdStartSeconds); err != nil {
		fatal(err)
	}
	if fi, err := os.Stat(bundlePath); err == nil {
		rep.BundleBytes = fi.Size()
	}
	t0 = time.Now()
	warm, hash, err := clara.LoadTool(bundlePath, cfg)
	if err != nil {
		fatal(err)
	}
	rep.WarmStartSeconds = time.Since(t0).Seconds()
	rep.ModelHash = hash

	// Training throughput: LSTM minibatch epochs over a synthetic token
	// corpus, the shape the predictor trains on.
	n, epochs := 400, 6
	if *quick {
		n, epochs = 100, 2
	}
	rep.TrainSamplesPerSec = trainThroughput(n, epochs)

	// Predict latency: every library element, block by block, on the
	// warm-started tool.
	iters := 5
	if *quick {
		iters = 1
	}
	us, err := predictLatency(warm, iters)
	if err != nil {
		fatal(err)
	}
	rep.PredictUsPerBlock = us

	// Batched predict latency: the whole library in one sweep, f32 then
	// int8; plus the quantization accuracy drift the gate test pins.
	batchIters := 20
	if *quick {
		batchIters = 2
	}
	if rep.PredictBatchUsPerBlock, err = predictBatchLatency(warm, batchIters, false); err != nil {
		fatal(err)
	}
	if rep.PredictInt8UsPerBlock, err = predictBatchLatency(warm, batchIters, true); err != nil {
		fatal(err)
	}
	if rep.QuantizedWmapeDrift, err = quantizedDrift(warm); err != nil {
		fatal(err)
	}

	// Fleet throughput: the full library × standard-workloads sweep on
	// the analysis pool, cold prediction cache.
	jobs, err := clara.LibraryJobs()
	if err != nil {
		fatal(err)
	}
	fl, err := clara.NewFleet(warm, clara.FleetConfig{})
	if err != nil {
		fatal(err)
	}
	t0 = time.Now()
	results, err := fl.Run(jobs)
	if err != nil {
		fatal(err)
	}
	for _, r := range results {
		if r.Err != nil {
			fatal(fmt.Errorf("fleet job %s: %w", r.Name, r.Err))
		}
	}
	rep.FleetJobsPerSec = float64(len(results)) / time.Since(t0).Seconds()

	// Host-profiling microbench.
	fmt.Fprintln(os.Stderr, "perfbench: host-profiling benchmark...")
	profPkts := 40000
	if *quick {
		profPkts = 4000
	}
	if rep.ProfileUsPerPacket, err = profileBench(profPkts); err != nil {
		fatal(err)
	}

	// Offload-controller convergence: how many rounds each threshold
	// policy needs to reach steady state, with the insight policy seeded
	// from the warm-started predictor's prediction for a real NF.
	fmt.Fprintln(os.Stderr, "perfbench: offload convergence benchmark...")
	rep.ConvergenceNF = "ecmp"
	rep.ConvergenceRounds = 96
	rep.Convergence, err = convergenceBench(warm, rep.ConvergenceNF, rep.ConvergenceRounds)
	if err != nil {
		fatal(err)
	}

	// Cluster scaling: the library batch served through a coordinator
	// fronting 1/2/4 in-process workers.
	fmt.Fprintln(os.Stderr, "perfbench: cluster scaling benchmark...")
	clusterIters := 10
	if *quick {
		clusterIters = 2
	}
	rep.Cluster, err = clusterBench(warm, clusterIters)
	if err != nil {
		fatal(err)
	}

	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(*out, append(blob, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "perfbench: wrote %s\n", *out)
	fmt.Println(string(blob))
}

// trainThroughput times LSTM minibatch training over a synthetic
// sequence corpus (the predictor's training shape) and returns
// samples/sec, counting each sample once per epoch.
func trainThroughput(n, epochs int) float64 {
	const vocab = 16
	rng := rand.New(rand.NewSource(11))
	samples := make([]ml.SeqSample, n)
	for i := range samples {
		ln := 4 + rng.Intn(24)
		toks := make([]int, ln)
		sum := 0.0
		for j := range toks {
			toks[j] = rng.Intn(vocab)
			sum += float64(toks[j])
		}
		samples[i] = ml.SeqSample{Tokens: toks, Target: []float64{sum}}
	}
	cfg := ml.LSTMConfig{Vocab: vocab, Hidden: 24, Epochs: epochs, Seed: 3, Batch: 8}
	t0 := time.Now()
	ml.TrainLSTM(samples, cfg)
	return float64(n*epochs) / time.Since(t0).Seconds()
}

// predictLatency runs the predictor over every library element and
// returns mean µs per basic block.
func predictLatency(tool *clara.Tool, iters int) (float64, error) {
	var blocks int
	var total time.Duration
	for it := 0; it < iters; it++ {
		for _, e := range clara.Elements() {
			mod, err := e.Module()
			if err != nil {
				return 0, err
			}
			t0 := time.Now()
			pred, err := tool.Predictor.PredictModule(mod, niccc.AccelConfig{})
			if err != nil {
				return 0, err
			}
			total += time.Since(t0)
			blocks += len(pred.Blocks)
		}
	}
	if blocks == 0 {
		return 0, fmt.Errorf("no blocks predicted")
	}
	return float64(total.Microseconds()) / float64(blocks), nil
}

// predictBatchLatency predicts every library element in one
// PredictModules sweep per iteration and returns mean µs per basic
// block, optionally on the int8-quantized path.
func predictBatchLatency(tool *clara.Tool, iters int, quantize bool) (float64, error) {
	var mods []*clara.Module
	for _, e := range clara.Elements() {
		mod, err := e.Module()
		if err != nil {
			return 0, err
		}
		mods = append(mods, mod)
	}
	tool.Predictor.SetQuantize(quantize)
	defer tool.Predictor.SetQuantize(false)
	var blocks int
	var total time.Duration
	for it := 0; it < iters; it++ {
		t0 := time.Now()
		preds, err := tool.Predictor.PredictModules(mods, niccc.AccelConfig{})
		if err != nil {
			return 0, err
		}
		total += time.Since(t0)
		for _, p := range preds {
			blocks += len(p.Blocks)
		}
	}
	if blocks == 0 {
		return 0, fmt.Errorf("no blocks predicted")
	}
	return float64(total.Nanoseconds()) / 1e3 / float64(blocks), nil
}

// quantizedDrift returns the worst per-element |WMAPE(int8) -
// WMAPE(f32)| across the library.
func quantizedDrift(tool *clara.Tool) (float64, error) {
	p := tool.Predictor
	defer p.SetQuantize(false)
	var worst float64
	for _, e := range clara.Elements() {
		mod, err := e.Module()
		if err != nil {
			return 0, err
		}
		p.SetQuantize(false)
		f32, err := p.Evaluate(mod)
		if err != nil {
			return 0, err
		}
		p.SetQuantize(true)
		q, err := p.Evaluate(mod)
		if err != nil {
			return 0, err
		}
		if d := math.Abs(q.WMAPE - f32.WMAPE); d > worst {
			worst = d
		}
	}
	return worst, nil
}

// convergenceBench runs the policy × scenario grid of the offload
// controller at a fixed seed: capacities derive from the trained
// predictor's prediction for nfName, the baselines start from the
// hand-set defaults, the insight policy from SeedFromPrediction.
func convergenceBench(tool *clara.Tool, nfName string, rounds int) ([]convergenceRow, error) {
	e := clara.GetElement(nfName)
	if e == nil {
		return nil, fmt.Errorf("unknown element %q", nfName)
	}
	mod, err := e.Module()
	if err != nil {
		return nil, err
	}
	mp, err := tool.Predictor.PredictModule(mod, niccc.AccelConfig{})
	if err != nil {
		return nil, err
	}
	caps := offload.DeriveCapacities(tool.Params, mp)
	var rows []convergenceRow
	for _, sc := range offload.Scenarios() {
		for _, kind := range []offload.PolicyKind{offload.PolicyStatic, offload.PolicyDynamic, offload.PolicyInsight} {
			var pol offload.PolicyConfig
			if kind == offload.PolicyInsight {
				pol = offload.SeedPolicy(sc, caps)
			} else {
				pol = offload.BaselinePolicy(kind, sc)
			}
			traj, err := offload.Simulate(offload.Config{
				Scenario: sc, Capacity: caps, Policy: pol, Rounds: rounds, Seed: 7,
			})
			if err != nil {
				return nil, err
			}
			last := traj.Rounds[len(traj.Rounds)-1]
			rows = append(rows, convergenceRow{
				Scenario:         sc.Name,
				Policy:           kind.String(),
				InitialThreshold: pol.Initial,
				FinalThreshold:   last.Threshold,
				ConvergenceRound: traj.ConvergenceRound(offload.DefaultConvergenceTarget),
				FinalDropRate:    traj.FinalDropRate(),
				FinalOffloadRate: traj.FinalOffloadRate(),
			})
			fmt.Fprintf(os.Stderr, "perfbench: %s\n", traj)
		}
	}
	return rows, nil
}

// profileBench times ProfileOnHost — the fleet's measured floor — over a
// loop-heavy element slice of the library, n packets of the mix workload
// each, and returns µs/packet. The best-of-3 minimum is used: profiling
// is deterministic, so the minimum is the run least disturbed by the
// machine.
func profileBench(n int) (usPerPkt float64, err error) {
	elems := []string{"mazunat", "cmsketch", "udpcount", "firewall", "dedup"}
	best := time.Duration(math.MaxInt64)
	for rep := 0; rep < 3; rep++ {
		t0 := time.Now()
		for _, name := range elems {
			e := clara.GetElement(name)
			if e == nil {
				return 0, fmt.Errorf("unknown element %q", name)
			}
			mod, err := e.Module()
			if err != nil {
				return 0, err
			}
			ps := core.ProfileSetup{Setup: e.Setup, LPMTable: e.Routes}
			if _, err := core.ProfileOnHost(mod, ps, traffic.MediumMix, n); err != nil {
				return 0, err
			}
		}
		if d := time.Since(t0); d < best {
			best = d
		}
	}
	usPerPkt = float64(best.Microseconds()) / float64(len(elems)*n)
	fmt.Fprintf(os.Stderr, "perfbench: profiling %.2fus/pkt\n", usPerPkt)
	return usPerPkt, nil
}

// clusterBench serves the whole element library as one /v1/analyze
// batch through a coordinator fronting n in-process workers, for n in
// {1, 2, 4}. Each worker is a single-threaded server (Workers: 1) so
// the grid isolates the coordinator's fan-out from the pool's own
// parallelism; all workers share the one trained tool (process-local
// model sharing — the network cluster would load the same bundle).
// One unmeasured warm-up batch fills the per-worker prediction caches,
// so the measured rows are hot-cache routing throughput.
func clusterBench(tool *clara.Tool, iters int) ([]clusterRow, error) {
	var names []string
	for _, e := range clara.Elements() {
		names = append(names, e.Name)
	}
	var rows []clusterRow
	for _, n := range []int{1, 2, 4} {
		row, err := clusterRun(tool, n, names, iters)
		if err != nil {
			return nil, fmt.Errorf("cluster n=%d: %w", n, err)
		}
		rows = append(rows, row)
	}
	for i := range rows {
		if rows[0].JobsPerSec > 0 {
			rows[i].SpeedupVs1 = rows[i].JobsPerSec / rows[0].JobsPerSec
		}
	}
	return rows, nil
}

func clusterRun(tool *clara.Tool, n int, names []string, iters int) (clusterRow, error) {
	var workerURLs []string
	for i := 0; i < n; i++ {
		srv, err := clara.NewServer(clara.ServerConfig{Tool: tool, Workers: 1, QueueDepth: 64})
		if err != nil {
			return clusterRow{}, err
		}
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		workerURLs = append(workerURLs, ts.Listener.Addr().String())
	}
	coord, err := clara.NewCoordinator(clara.ClusterConfig{Workers: workerURLs})
	if err != nil {
		return clusterRow{}, err
	}
	cs := httptest.NewServer(coord.Handler())
	defer cs.Close()

	body, err := json.Marshal(map[string]any{"nfs": names})
	if err != nil {
		return clusterRow{}, err
	}
	post := func() error {
		resp, err := http.Post(cs.URL+"/v1/analyze", "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("analyze: HTTP %d", resp.StatusCode)
		}
		if resp.Header.Get("X-Clara-Failed-Jobs") != "" {
			return fmt.Errorf("analyze: %s jobs failed", resp.Header.Get("X-Clara-Failed-Jobs"))
		}
		return nil
	}
	if err := post(); err != nil { // warm-up: fill the per-worker caches
		return clusterRow{}, err
	}
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		if err := post(); err != nil {
			return clusterRow{}, err
		}
	}
	elapsed := time.Since(t0).Seconds()

	row := clusterRow{
		Workers:    n,
		JobsPerSec: float64(iters*len(names)) / elapsed,
	}
	// The merged cluster metrics carry the hit rate the content-hash
	// routing earned across the measured batches.
	resp, err := http.Get(cs.URL + "/metrics")
	if err != nil {
		return clusterRow{}, err
	}
	defer resp.Body.Close()
	var snap struct {
		Merged struct {
			Fleet struct {
				CacheHitRate float64 `json:"cache_hit_rate"`
			} `json:"fleet"`
		} `json:"merged"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return clusterRow{}, err
	}
	row.CacheHitRate = snap.Merged.Fleet.CacheHitRate
	fmt.Fprintf(os.Stderr, "perfbench: cluster workers=%d jobs/sec=%.1f hit-rate=%.3f\n",
		n, row.JobsPerSec, row.CacheHitRate)
	return row, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}
