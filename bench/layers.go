package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"clara"
	"clara/internal/click"
	"clara/internal/core"
	"clara/internal/niccc"
)

// spanMetrics maps a per-layer time metric to the span it sums; the value
// is mean µs per traced job.
var spanMetrics = map[string]string{
	"lang.compile_us":          "lang.compile",
	"ir.fingerprint_us":        "ir.fingerprint",
	"analysis.lint_us":         "analysis.lint",
	"analysis.stateprofile_us": "analysis.stateprofile",
	"core.predict_us":          "core.predict",
	"core.algoid_us":           "core.algoid",
	"core.placement_us":        "core.placement",
	"core.packs_us":            "core.packs",
	"core.scaleout_us":         "core.scaleout",
	"interp.compile_us":        "interp.compile",
	"interp.profile_us":        "interp.profile",
	"server.encode_us":         "server.encode",
}

// table2Algo is the accelerator algorithm Table 2 of the paper marks for
// an element; every other element is marked none.
var table2Algo = map[string]int{"cmsketch": core.AlgoCRC, "wepdecap": core.AlgoCRC, "iplookup": core.AlgoLPM}

// traced runs the traced pass and turns its spans and counters into the
// per-layer metrics. A metric that does not apply to the workload's door
// (cluster.* without a coordinator, server.* through the fleet) reads 0.
func traced(rec *record, s *setup) error {
	d, tool := s.door, s.tool
	rec.SpinMS[0] = spinMS()
	tr, err := tracedPass(d, tool, max(int(rec.Seconds*tracedJobsPerSecond), 1))
	if err != nil {
		return fmt.Errorf("%s: traced pass: %w", rec.Workload, err)
	}
	before, after := tr.before, tr.after
	rec.SpinMS[1] = spinMS()
	rec.Disturbed = disturbed(rec.SpinMS)

	jobs := float64(tr.jobs)
	ops := float64(tr.ops)
	put := func(name string, v float64, unit string, n int) { rec.Metrics[name] = metric{v, unit, n} }
	perJob := func(name, unit string) { put(name, tr.sum[name]/jobs, unit, tr.jobs) }

	byName := map[string]float64{}
	count := map[string]int{}
	self := selfTimes(tr.spans)
	var wall, layerSelf, analysed float64
	for _, sp := range tr.spans {
		dur := float64(sp.EndNS-sp.StartNS) / 1e3
		byName[sp.Name] += dur
		count[sp.Name]++
		switch {
		case sp.Name == "pipeline.op":
			wall += dur
		case isLayer(sp.Name):
			layerSelf += float64(self[sp.ID]) / 1e3
			// What the door's reported per-job time covers: everything
			// inside its fleet's analyze, so neither parsing nor encoding,
			// nor the batch-level prediction sweep.
			if sp.Job >= 0 && sp.Name != "lang.compile" && sp.Name != "server.encode" {
				analysed += dur
			}
		}
	}
	for m, sp := range spanMetrics {
		put(m, byName[sp]/jobs, "us", count[sp])
	}
	perJob("lang.src_bytes", "bytes")
	perJob("ir.instrs", "count")
	perJob("ir.blocks", "count")
	perJob("analysis.diags", "count")
	perJob("traffic.replay_us", "us")
	put("interp.steps_per_packet", tr.sum["interp.steps"]/(jobs*profilePackets), "count", tr.jobs)
	put("interp.ns_per_step", byName["interp.profile"]*1e3/max(tr.sum["interp.steps"], 1), "ns", tr.jobs)
	var allocs float64
	probes := d.jobs(0)
	for _, j := range probes[:min(len(probes), 8)] {
		a, err := allocsPerPacket(j)
		if err != nil {
			return err
		}
		allocs = max(allocs, a)
	}
	put("interp.allocs_per_packet", allocs, "count", min(len(probes), 8))

	lookups := float64(after.hits - before.hits + after.misses - before.misses)
	put("fleet.cache_hit_ratio", float64(after.hits-before.hits)/max(lookups, 1), "ratio", int(lookups))
	put("fleet.prewarmed", float64(after.prewarmed-before.prewarmed), "count", int(ops))
	put("fleet.cache_evictions", float64(after.evictions-before.evictions), "count", int(lookups))
	put("fleet.pool_utilisation", tr.sum["door.elapsed_us"]/
		(float64(min(d.parallelism(), s.jobsInOp))*tr.sum["door.rtt_us"]), "ratio", int(ops))
	sort.Float64s(tr.elapsed)
	put("fleet.job_p50_ms", percentile(tr.elapsed, 50), "ms", tr.jobs)
	put("fleet.job_max_ms", percentile(tr.elapsed, 100), "ms", tr.jobs)

	put("server.overhead_us", tr.sum["server.overhead_us"]/max(tr.sum["server.overhead_n"], 1), "us", int(tr.sum["server.overhead_n"]))
	put("server.bytes_in_per_job", tr.sum["door.in"]/jobs, "bytes", tr.jobs)
	put("server.bytes_out_per_job", tr.sum["door.out"]/jobs, "bytes", tr.jobs)
	put("server.rejected", float64(after.rejected-before.rejected), "count", int(ops))

	var routed, routedMax float64
	for wi := range after.routed {
		n := float64(after.routed[wi] - before.routed[wi])
		routed, routedMax = routed+n, max(routedMax, n)
	}
	cl, subBatches := 0, 0.0
	if after.routed != nil {
		cl = tr.ops
		subBatches = float64(after.workerReqs-before.workerReqs) - tr.sum["cluster.direct_reqs"]
	}
	put("cluster.hop_us", tr.sum["cluster.hop_us"]/ops, "us", cl)
	put("cluster.subbatches_per_req", subBatches/ops, "count", cl)
	put("cluster.worker_share_max", routedMax/max(routed, 1), "ratio", cl)
	put("cluster.retries", float64(after.retries-before.retries), "count", cl)

	put("host.nproc", float64(runtime.NumCPU()), "count", 1)
	put("host.gomaxprocs", float64(runtime.GOMAXPROCS(0)), "count", 1)
	put("host.spin_ms", (rec.SpinMS[0]+rec.SpinMS[1])/2, "ms", 2)
	put("trace.job_us", wall/jobs, "us", tr.jobs)
	put("trace.unattributed_ratio", 1-layerSelf/wall, "ratio", tr.jobs)
	put("trace.overhead_ratio", analysed/tr.sum["door.elapsed_us"], "ratio", tr.jobs)

	modelHash, err := modelQuality(rec, tool)
	if err != nil {
		return err
	}
	rec.Failures = append(tr.failures, crossDoor(tool, s.hash)...)
	rec.Digests = map[string]string{"insights_digest": tr.digest, "model_hash": modelHash}
	rec.Ops, rec.Jobs, rec.Failed = tr.ops, tr.jobs, len(rec.Failures)
	rec.Correct = len(rec.Failures) == 0
	rec.Spans = tr.spans
	return nil
}

// modelQuality records what the model says beside how fast it says it, so
// an accuracy regression shows in the same diff as a speed-up, and returns
// the model's hash: that of its bundle without the training time and date
// a saved bundle's own hash covers. All of it repeats exactly for one model.
func modelQuality(rec *record, tool *clara.Tool) (string, error) {
	b, err := core.NewBundle(tool, core.BundleMeta{Quick: trainConfig.Quick, Seed: trainConfig.Seed})
	if err != nil {
		return "", err
	}
	if _, err := core.EncodeBundle(b); err != nil { // seals b.Hash
		return "", err
	}
	var wmape float64
	lib := click.Library()
	for _, e := range lib {
		mod, err := e.Module()
		if err != nil {
			return "", err
		}
		ev, err := tool.Predictor.Evaluate(mod)
		if err != nil {
			return "", err
		}
		wmape += ev.WMAPE
	}
	rec.Metrics["core.predict_wmape"] = metric{wmape / float64(len(lib)), "ratio", len(lib)}

	mods, err := click.Modules(click.Table2Order)
	if err != nil {
		return "", err
	}
	correct, blocks := 0, 0
	for _, m := range mods {
		if tool.AlgoID.Classify(m) == table2Algo[m.Name] { // a missing key is core.AlgoNone
			correct++
		}
		blocks += len(m.Handler().Blocks)
	}
	rec.Metrics["core.algoid_table2_correct"] = metric{float64(correct), "count", len(mods)}

	var sweeps []float64
	for rep := 0; rep < 5; rep++ {
		t0 := time.Now()
		if _, err := tool.Predictor.PredictModules(mods, niccc.AccelConfig{}); err != nil {
			return "", err
		}
		sweeps = append(sweeps, us(time.Since(t0))/float64(blocks))
	}
	rec.Metrics["core.predict_batch_us_per_block"] = metric{median(sweeps), "us", len(sweeps)}
	return b.Hash, nil
}
