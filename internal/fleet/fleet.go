// Package fleet runs Clara's analysis over batches of (NF, workload)
// jobs: a bounded worker pool executes core.Clara analyses concurrently,
// a memoizing cache shares each module's §3 prediction across every
// workload it is analyzed under, a second one answers a repeated job with
// the Insights it was answered with before, a third, living only as long
// as one batch, shares each module's static facts (core.ModuleFacts)
// between the batch's workloads, and per-stage metrics (jobs completed,
// cache hits/misses, per-analysis wall-time histogram) are exposed as a
// Stats snapshot.
//
// The trained models (Predictor, AlgoIdentifier, ScaleoutModel) are
// shared read-only across workers — after training they are never
// mutated, and every per-job mutable structure (interpreter machines,
// host profiles, traffic generators) is created per analysis. The only
// shared mutable state the fleet adds, the stores and the metrics, is
// guarded internally, so Run is safe to call with any worker count and
// its results are deterministic: result i always corresponds to job i,
// and analysis output is a pure function of the job.
package fleet

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"clara/internal/analysis"
	"clara/internal/core"
	"clara/internal/ir"
	"clara/internal/memo"
	"clara/internal/niccc"
	"clara/internal/traffic"
)

// Job is one unit of fleet work: analyze Mod under WL.
type Job struct {
	// Name labels the job in results and summaries; defaults to Mod.Name.
	Name string
	Mod  *ir.Module
	PS   core.ProfileSetup
	WL   traffic.Spec
	// Accel is the accelerator configuration the prediction assumes; it is
	// part of the cache key (the same module predicted under different
	// engine configurations yields different API costs).
	Accel niccc.AccelConfig
}

func (j Job) label() string {
	name := j.Name
	if name == "" && j.Mod != nil {
		name = j.Mod.Name
	}
	return name
}

// Result is one job's outcome, in job order.
type Result struct {
	Name     string
	Workload string
	// Insights may be shared with other Results — the result store answers
	// a repeated job with the Insights it already holds, as the prediction
	// inside them has always been shared — and are read-only.
	Insights *core.Insights
	Err      error
	// Elapsed is this analysis' wall time (prediction + profiling +
	// placement + scale-out, or the two lookups of a result hit).
	Elapsed time.Duration
	// CacheHit records whether the §3 prediction was served from the
	// fleet cache rather than recomputed.
	CacheHit bool
	// ResultHit records that the whole analysis was served from the
	// result store: nothing was profiled, linted or placed for this job.
	ResultHit bool
	// Panicked reports that the analysis panicked; Err then carries the
	// panic value and a stack snippet. The panic is confined to this job —
	// the rest of the batch is unaffected.
	Panicked bool
	// Lint counts this job's offloadability diagnostics by severity.
	Lint analysis.Summary
	// PayloadLoops counts this NF's loops whose bounds the taint analysis
	// traced to packet payload bytes (slow-path-only work).
	PayloadLoops int
	// PayloadKeyedStructs counts stateful structures keyed by
	// payload-derived values (ineligible for a header-only fast path).
	PayloadKeyedStructs int

	// analysed is what Insights, Lint and the payload counts were read
	// from; it carries the lazily encoded wire form (EncodedInsights).
	analysed *analysed
}

// Config sizes a Fleet.
type Config struct {
	// Workers bounds the pool; 0 means runtime.GOMAXPROCS(0).
	Workers int
}

func (c Config) norm() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	return c
}

// Fleet analyzes job batches against one trained Clara tool. The
// prediction and result stores persist across Run calls, so long-lived
// fleets amortize prediction cost over every batch they serve and answer
// a repeated job with two lookups.
type Fleet struct {
	tool    *core.Clara
	cfg     Config
	cache   *memo.Store[predKey, *core.ModulePrediction]
	results *memo.Store[resultKey, *analysed]
	stats   *collector
}

// New builds a fleet around a trained tool.
func New(tool *core.Clara, cfg Config) (*Fleet, error) {
	if tool == nil || tool.Predictor == nil {
		return nil, fmt.Errorf("fleet: nil tool or untrained predictor")
	}
	cfg = cfg.norm()
	return &Fleet{
		tool:    tool,
		cfg:     cfg,
		cache:   memo.New[predKey, *core.ModulePrediction](predCacheCap),
		results: memo.New[resultKey, *analysed](resultCacheCap),
		stats:   newCollector(),
	}, nil
}

// Workers returns the configured pool size.
func (f *Fleet) Workers() int { return f.cfg.Workers }

// Stats returns a snapshot of the fleet's lifetime metrics. The cache
// counters are the prediction store's own and are read after the job
// counters. A lookup is counted when it happens and a job when it ends, so
// the snapshot's hits + misses cover every job it counts that made a
// lookup, plus up to one lookup per job still in flight: under load they
// can lead the job counters by that many and never trail them.
func (f *Fleet) Stats() Stats {
	s := f.stats.snapshot()
	s.Predictions, s.Results = f.cache.Stats(), f.results.Stats()
	s.CacheHits, s.CacheMisses, s.CacheEvictions = s.Predictions.Hits, s.Predictions.Misses, s.Predictions.Evictions
	return s
}

// Run analyzes every job over the worker pool and returns results in job
// order regardless of scheduling. A job failure is recorded in its
// Result; Run itself only fails on malformed jobs discovered up front.
func (f *Fleet) Run(jobs []Job) ([]Result, error) {
	return f.RunContext(context.Background(), jobs)
}

// RunContext is Run under a context. Cancellation stops the batch
// promptly: jobs not yet dispatched are marked with the context's error
// without running, and in-flight analyses observe ctx inside their
// stages (profiling checks it every 64 packets) and abort early. Results
// stay in job order; RunContext returns ctx.Err() so callers can
// distinguish a canceled batch from a completed one with job failures.
func (f *Fleet) RunContext(ctx context.Context, jobs []Job) ([]Result, error) {
	for i, j := range jobs {
		if j.Mod == nil {
			return nil, fmt.Errorf("fleet: job %d (%q) has no module", i, j.Name)
		}
	}
	results := make([]Result, len(jobs))
	start := time.Now() //claravet:allow metrics only: feeds Stats.Wall, not any result
	if len(jobs) == 1 && ctx.Err() == nil {
		// A one-job batch — every single-NF request a server gets — runs on
		// the caller's goroutine: analyze confines its own panics, and a
		// channel, a goroutine and a wakeup cost more than a result hit.
		results[0] = f.analyze(ctx, jobs[0], nil)
	} else {
		f.runPool(ctx, jobs, results)
	}
	f.stats.addWall(time.Since(start))
	return results, ctx.Err()
}

// runPool spreads jobs over the worker pool, filling results in job order.
func (f *Fleet) runPool(ctx context.Context, jobs []Job, results []Result) {
	batch := memo.New[predKey, *core.ModuleFacts](len(jobs))
	idx := make(chan int)
	var wg sync.WaitGroup
	workers := f.cfg.Workers
	if workers > len(jobs) {
		workers = len(jobs)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				results[i] = f.analyze(ctx, jobs[i], batch)
			}
		}()
	}
dispatch:
	for i := range jobs {
		select {
		case idx <- i:
		case <-ctx.Done():
			// Jobs i.. were never dispatched: record them as canceled
			// without touching cache or latency metrics.
			for j := i; j < len(jobs); j++ {
				results[j] = Result{Name: jobs[j].label(), Workload: jobs[j].WL.Name, Err: ctx.Err()}
				f.stats.recordSkipped()
			}
			break dispatch
		}
	}
	close(idx)
	wg.Wait()
}

// analyze runs one job: the §3 prediction via its store, the module's
// static facts (shared with the rest of the batch, if any), then the
// workload-dependent analyses — or, for a module this fleet has predicted
// before, the stored outcome of an identical job. A panic anywhere in the
// analysis is confined to this job's Result — one poisoned NF must not
// take down the batch (or, in serving mode, the process).
//
// Every job makes exactly one prediction lookup, and only a job whose
// lookup hit goes on to the result store. That is the store's admission
// rule: a module's first job computes and keeps nothing, so a stream of
// never-seen source cannot fill the store with replies nobody asks for
// again (keeping all of them cost unique-src +30 % peak RSS), and a
// repeated job pays for one extra analysis before it becomes a lookup.
func (f *Fleet) analyze(ctx context.Context, j Job, batch *factsStore) (res Result) {
	start := time.Now() //claravet:allow metrics only: feeds Result.Elapsed, not the analysis
	res = Result{Name: j.label(), Workload: j.WL.Name}
	defer func() {
		if r := recover(); r != nil {
			res.Panicked = true
			res.Err = fmt.Errorf("fleet: job %q panicked: %v\n%s", res.Name, r, stackSnippet())
		}
		res.Elapsed = time.Since(start)
		f.stats.record(res)
	}()

	pk := predKey{ir.Fingerprint(j.Mod), j.Accel}
	mp, hit, err := f.cache.Get(ctx, pk, func() (*core.ModulePrediction, error) {
		return f.tool.Predictor.PredictModule(j.Mod, j.Accel)
	})
	res.CacheHit = hit
	if err != nil {
		res.Err = err
		return res
	}
	compute := func() (*analysed, error) {
		ins, err := f.tool.AnalyzeWorkloadContext(ctx, j.Mod, j.PS, j.WL, f.facts(ctx, batch, pk, j.Mod, mp))
		if err != nil {
			return nil, err
		}
		return newAnalysed(ins), nil
	}
	var a *analysed
	if hit && memoisable(j.PS) {
		led := false
		a, res.ResultHit, err = f.results.Get(ctx, resultKey{pk, j.WL, j.PS.ID}, func() (*analysed, error) {
			led = true
			return compute()
		})
		if err != nil && !led {
			// The computation this job waited on was canceled, timed out or
			// panicked under another request's context — or this job's own
			// context ended the wait. None of that is this job's outcome:
			// it computes for itself, under its own context, keeping nothing.
			a, err = compute()
		}
	} else {
		a, err = compute()
	}
	if err != nil {
		res.Err = err
		return res
	}
	res.analysed = a
	res.Insights, res.Lint = a.ins, a.lint
	res.PayloadLoops, res.PayloadKeyedStructs = a.payloadLoops, a.payloadKeyedStructs
	return res
}

// moduleFacts computes a module's static half; tests count its calls.
var moduleFacts = (*core.Clara).Facts

// factsStore holds a batch's module facts: each module's static half,
// computed once however many workloads the batch analyzes it under. It
// lives and dies with the batch.
type factsStore = memo.Store[predKey, *core.ModuleFacts]

// facts returns mod's static half: computed for this job alone outside a
// batch (batch nil), else through the batch's store, keyed like the
// prediction whose facts they are (the tool, which the rest depends on,
// is the fleet's).
func (f *Fleet) facts(ctx context.Context, batch *factsStore, pk predKey, mod *ir.Module, mp *core.ModulePrediction) *core.ModuleFacts {
	if batch == nil {
		return moduleFacts(f.tool, mod, mp)
	}
	fs, _, err := batch.Get(ctx, pk, func() (*core.ModuleFacts, error) {
		return moduleFacts(f.tool, mod, mp), nil
	})
	if err != nil {
		// Only a waiter sees an error: the computation it waited on
		// panicked, or its own context ended the wait. As with the result
		// tier, it computes for itself, so a panic and its stack stay with
		// the job that raises it.
		return moduleFacts(f.tool, mod, mp)
	}
	return fs
}

// stackSnippet returns the first few KB of the panicking goroutine's
// stack — enough to locate the fault without flooding a Result (or a
// JSON error response) with a full trace.
func stackSnippet() []byte {
	s := debug.Stack()
	const maxBytes = 2048
	if len(s) > maxBytes {
		if i := bytes.LastIndexByte(s[:maxBytes], '\n'); i > 0 {
			s = s[:i]
		} else {
			s = s[:maxBytes]
		}
	}
	return s
}
