// Package fleet runs Clara's analysis over batches of (NF, workload)
// jobs: a bounded worker pool executes core.Clara analyses concurrently,
// a memoizing cache shares each module's §3 prediction across every
// workload it is analyzed under, and per-stage metrics (jobs completed,
// cache hits/misses, per-analysis wall-time histogram) are exposed as a
// Stats snapshot.
//
// The trained models (Predictor, AlgoIdentifier, ScaleoutModel) are
// shared read-only across workers — after training they are never
// mutated, and every per-job mutable structure (interpreter machines,
// host profiles, traffic generators) is created per analysis. The only
// shared mutable state the fleet adds, the prediction cache and the
// metrics, is guarded internally, so Run is safe to call with any worker
// count and its results are deterministic: result i always corresponds
// to job i, and analysis output is a pure function of the job.
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
	"clara/internal/interp"
	"clara/internal/ir"
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
	Insights *core.Insights
	Err      error
	// Elapsed is this analysis' wall time (prediction + profiling +
	// placement + scale-out).
	Elapsed time.Duration
	// CacheHit records whether the §3 prediction was served from the
	// fleet cache rather than recomputed.
	CacheHit bool
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
}

// Config sizes a Fleet.
type Config struct {
	// Workers bounds the pool; 0 means runtime.GOMAXPROCS(0).
	Workers int
	// CacheSize caps the prediction cache at this many entries (LRU
	// eviction); 0 means DefaultCacheSize. A long-running server sees an
	// unbounded stream of submitted-source modules, so the cache must not
	// grow with it.
	CacheSize int
}

func (c Config) norm() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	return c
}

// Fleet analyzes job batches against one trained Clara tool. The
// prediction cache persists across Run calls, so long-lived fleets
// amortize prediction cost over every batch they serve.
type Fleet struct {
	tool  *core.Clara
	cfg   Config
	cache *predCache
	stats *collector
}

// New builds a fleet around a trained tool.
func New(tool *core.Clara, cfg Config) (*Fleet, error) {
	if tool == nil || tool.Predictor == nil {
		return nil, fmt.Errorf("fleet: nil tool or untrained predictor")
	}
	cfg = cfg.norm()
	return &Fleet{
		tool:  tool,
		cfg:   cfg,
		cache: newPredCache(cfg.CacheSize),
		stats: newCollector(),
	}, nil
}

// Workers returns the configured pool size.
func (f *Fleet) Workers() int { return f.cfg.Workers }

// Stats returns a consistent snapshot of the fleet's lifetime metrics.
func (f *Fleet) Stats() Stats {
	s := f.stats.snapshot()
	s.CacheEvictions = f.cache.evicted()
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
	f.prewarm(ctx, jobs)
	idx := make(chan int)
	var wg sync.WaitGroup
	workers := f.cfg.Workers
	if workers > len(jobs) {
		workers = len(jobs)
	}
	start := time.Now() //claravet:allow metrics only: feeds Stats.Wall, not any result
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				results[i] = f.analyze(ctx, jobs[i])
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
	f.stats.addWall(time.Since(start))
	return results, ctx.Err()
}

// prewarm claims every distinct (module, accel) key a batch needs that
// is not already cached and predicts all claimed modules in one batched
// LSTM sweep (core.Predictor.PredictModules) before workers start. With
// the cache populated up front, per-job analysis skips straight to the
// workload stages, and the predictor amortizes its Gemm calls — and
// deduplicates identical basic blocks — across the whole batch instead
// of per module. Workers that race with a long prewarm still block on
// the singleflight entries, so semantics are unchanged.
func (f *Fleet) prewarm(ctx context.Context, jobs []Job) {
	if len(jobs) < 2 || ctx.Err() != nil {
		return
	}
	// Group claimed keys by accelerator config (one PredictModules sweep
	// per distinct accel — batches are nearly always homogeneous).
	type group struct {
		mods    []*ir.Module
		entries []*predEntry
	}
	groups := make(map[niccc.AccelConfig]*group)
	claimed := 0
	for _, j := range jobs {
		e, leader := f.cache.claim(keyFor(j.Mod, j.Accel))
		if !leader {
			continue
		}
		g := groups[j.Accel]
		if g == nil {
			g = &group{}
			groups[j.Accel] = g
		}
		g.mods = append(g.mods, j.Mod)
		g.entries = append(g.entries, e)
		claimed++
	}
	if claimed == 0 {
		return
	}
	defer f.stats.addPrewarmed(int64(claimed))
	// Each group fills only its own claimed cache entries, so the order
	// groups are swept in cannot affect any job's result.
	for accel, g := range groups { //claravet:allow order-insensitive: groups fill disjoint cache entries
		f.prewarmGroup(accel, g.mods, g.entries)
	}
}

// prewarmGroup predicts one accel-homogeneous module group and fills its
// claimed cache entries. Every entry is completed no matter what —
// leaked in-flight entries would block workers forever — so a panic in
// the sweep fails the remaining entries instead of unwinding past them.
func (f *Fleet) prewarmGroup(accel niccc.AccelConfig, mods []*ir.Module, entries []*predEntry) {
	filled := 0
	defer func() {
		if r := recover(); r != nil {
			err := fmt.Errorf("fleet: batch prediction panicked: %v\n%s", r, stackSnippet())
			for _, e := range entries[filled:] {
				f.cache.fill(e, nil, err)
			}
		}
	}()
	// Warm the interpreter's compiled-program cache alongside the
	// prediction sweep, so host profiling for these modules starts
	// without each first worker paying the compile. A compile error is
	// not a batch error — interp.New reports the same error again when
	// that module's own job profiles it.
	for _, mod := range mods {
		_ = interp.Precompile(mod)
	}
	mps, err := f.tool.Predictor.PredictModules(mods, accel)
	if err != nil {
		// The batched sweep fails jointly (e.g. one module calls an API
		// with no reverse port). Fall back to per-module calls so the
		// error stays confined to the module that caused it.
		for i, mod := range mods {
			mp, merr := f.tool.Predictor.PredictModule(mod, accel)
			f.cache.fill(entries[i], mp, merr)
			filled++
		}
		return
	}
	for i := range mods {
		f.cache.fill(entries[i], mps[i], nil)
		filled++
	}
}

// analyze runs one job: prediction via the cache, then the
// workload-dependent analyses. A panic anywhere in the analysis is
// confined to this job's Result — one poisoned NF must not take down the
// batch (or, in serving mode, the process).
func (f *Fleet) analyze(ctx context.Context, j Job) (res Result) {
	start := time.Now() //claravet:allow metrics only: feeds Result.Elapsed, not the analysis
	res = Result{Name: j.label(), Workload: j.WL.Name}
	defer func() {
		if r := recover(); r != nil {
			res.Panicked = true
			res.Insights = nil
			res.Err = fmt.Errorf("fleet: job %q panicked: %v\n%s", res.Name, r, stackSnippet())
		}
		res.Elapsed = time.Since(start)
		f.stats.record(res)
	}()

	mp, hit, err := f.cache.get(j.Mod, j.Accel, func() (*core.ModulePrediction, error) {
		return f.tool.Predictor.PredictModule(j.Mod, j.Accel)
	})
	res.CacheHit = hit
	if err == nil {
		res.Insights, err = f.tool.AnalyzeWithPredictionContext(ctx, j.Mod, j.PS, j.WL, mp)
	}
	if res.Insights != nil {
		res.Lint = analysis.Summarize(res.Insights.Diagnostics)
		if sp := res.Insights.StateProfile; sp != nil {
			res.PayloadLoops = sp.PayloadLoops()
			for _, s := range sp.Structs {
				if s.PayloadKeyed {
					res.PayloadKeyedStructs++
				}
			}
		}
	}
	res.Err = err
	return res
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
