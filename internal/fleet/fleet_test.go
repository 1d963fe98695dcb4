package fleet

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"clara/internal/analysis"
	"clara/internal/click"
	"clara/internal/core"
	"clara/internal/interp"
	"clara/internal/ir"
	"clara/internal/lang"
	"clara/internal/memo"
	"clara/internal/niccc"
	"clara/internal/nicsim"
	"clara/internal/synth"
	"clara/internal/traffic"
)

// The trained tool is shared across tests (training is the expensive
// part; the trained models are read-only, which is exactly what the
// fleet relies on).
var (
	toolOnce sync.Once
	testTool *core.Clara
	toolErr  error
)

func quickTool(t testing.TB) *core.Clara {
	t.Helper()
	toolOnce.Do(func() {
		const seed = 5
		params := nicsim.DefaultParams()
		mods, err := click.Modules(click.Table2Order)
		if err != nil {
			toolErr = err
			return
		}
		pred, err := core.TrainPredictor(core.PredictorConfig{
			TrainPrograms: 50, Epochs: 6, Hidden: 16,
			CompactVocab: true, Seed: seed,
		}, core.CorpusProfile(mods))
		if err != nil {
			toolErr = err
			return
		}
		corpus := synth.AlgoCorpus(12, seed)
		for _, name := range []string{"tcpack", "udpipencap", "aggcounter"} {
			corpus = append(corpus, synth.LabeledProgram{
				Name: "click_" + name, Src: click.Get(name).Src, Label: synth.LabelNone,
			})
		}
		algo, err := core.TrainAlgoIdentifier(corpus, 48, seed)
		if err != nil {
			toolErr = err
			return
		}
		sm, err := core.TrainScaleout(core.ScaleoutConfig{
			TrainPrograms: 8, PacketsPerTrace: 400,
			CoreGrid: []int{2, 8, 16, 32, 48, 60},
			Params:   params, Seed: seed,
		}, pred)
		if err != nil {
			toolErr = err
			return
		}
		testTool = &core.Clara{Predictor: pred, AlgoID: algo, Scaleout: sm, Params: params}
	})
	if toolErr != nil {
		t.Fatalf("training quick tool: %v", toolErr)
	}
	return testTool
}

// elementJob is one library element under the small-flows workload.
func elementJob(name string) Job {
	e := click.Get(name)
	return Job{
		Name: e.Name,
		Mod:  e.MustModule(),
		PS:   core.ProfileSetup{Setup: e.Setup, LPMTable: e.Routes},
		WL:   traffic.SmallFlows,
	}
}

// libraryJobs builds the full 17-element × 3-workload batch the
// acceptance criteria name.
func libraryJobs(t testing.TB) []Job {
	t.Helper()
	var jobs []Job
	for _, name := range click.Table2Order {
		if click.Get(name) == nil {
			t.Fatalf("unknown element %q", name)
		}
		for _, wl := range []traffic.Spec{traffic.SmallFlows, traffic.LargeFlows, traffic.MediumMix} {
			j := elementJob(name)
			j.WL = wl
			jobs = append(jobs, j)
		}
	}
	return jobs
}

// TestFleetLibraryEightWorkers runs the whole library batch on 8 workers
// (this is the test `go test -race` exercises for the concurrent path)
// and checks job accounting and cache behaviour: every module appears
// under 3 workloads, so a cold fleet computes one prediction per module —
// a miss for the job that computed it — and the other two jobs hit.
func TestFleetLibraryEightWorkers(t *testing.T) {
	tool := quickTool(t)
	jobs := libraryJobs(t)
	if len(jobs) < 17*3 {
		t.Fatalf("batch too small: %d jobs", len(jobs))
	}
	fl, err := New(tool, Config{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	results, err := fl.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(jobs) {
		t.Fatalf("got %d results for %d jobs", len(results), len(jobs))
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("job %d (%s/%s) failed: %v", i, r.Name, r.Workload, r.Err)
		}
		if r.Name != jobs[i].Name || r.Workload != jobs[i].WL.Name {
			t.Fatalf("result %d out of order: got %s/%s want %s/%s",
				i, r.Name, r.Workload, jobs[i].Name, jobs[i].WL.Name)
		}
		if r.Insights == nil || r.Insights.Prediction == nil {
			t.Fatalf("job %d has no insights", i)
		}
	}
	s := fl.Stats()
	if s.JobsCompleted != int64(len(jobs)) || s.JobsFailed != 0 {
		t.Errorf("stats: %d completed, %d failed; want %d, 0", s.JobsCompleted, s.JobsFailed, len(jobs))
	}
	if s.CacheMisses != 17 || s.CacheHits != 34 || s.Prewarmed != 0 {
		t.Errorf("cache: %d hits, %d misses, %d prewarmed; want 34, 17, 0",
			s.CacheHits, s.CacheMisses, s.Prewarmed)
	}
	if got := s.CacheHitRate; got != 2.0/3.0 {
		t.Errorf("hit rate %v, want 2/3", got)
	}
	perJob := 0
	for _, r := range results {
		if r.CacheHit {
			perJob++
		}
	}
	if perJob != 34 {
		t.Errorf("%d results report CacheHit, want 34", perJob)
	}
	if got := fl.modules.Len(); got != 17 {
		t.Errorf("cache holds %d entries, want 17", got)
	}
	if s.Analyses.N != int64(len(jobs)) || s.Analyses.MeanMs <= 0 {
		t.Errorf("histogram: n=%d mean=%vms", s.Analyses.N, s.Analyses.MeanMs)
	}
	if s.Wall <= 0 {
		t.Error("no wall time recorded")
	}
}

// TestFleetSummaryTable sanity-checks the rendered batch table.
func TestFleetSummaryTable(t *testing.T) {
	tool := quickTool(t)
	jobs := libraryJobs(t)[:6]
	fl, err := New(tool, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	results, err := fl.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	tab := Summary(results)
	lines := strings.Split(strings.TrimRight(tab, "\n"), "\n")
	if len(lines) != len(jobs)+1 {
		t.Fatalf("table has %d lines, want %d:\n%s", len(lines), len(jobs)+1, tab)
	}
	if !strings.Contains(lines[0], "NF") || !strings.Contains(lines[0], "CACHE") || !strings.Contains(lines[0], "LINT") {
		t.Errorf("bad header: %q", lines[0])
	}
	for _, r := range results[:2] {
		if !strings.Contains(tab, r.Name) {
			t.Errorf("table missing NF %q:\n%s", r.Name, tab)
		}
	}
}

// TestCacheSingleflight checks the fleet's keying on top of the store's
// singleflight (whose contract internal/memo tests): concurrent jobs on
// one module share one prediction, and the accelerator configuration is
// part of the key.
func TestCacheSingleflight(t *testing.T) {
	mod := click.Get("tcpack").MustModule()
	c := memo.New[predKey, *core.ModulePrediction](predCacheCap)
	var calls atomic.Int32
	compute := func() (*core.ModulePrediction, error) {
		calls.Add(1)
		return &core.ModulePrediction{Name: mod.Name}, nil
	}
	var wg sync.WaitGroup
	var hits atomic.Int32
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mp, hit, err := c.Get(context.Background(), predKey{hash: ir.Fingerprint(mod)}, compute)
			if err != nil || mp == nil {
				t.Errorf("Get: mp=%v err=%v", mp, err)
			}
			if hit {
				hits.Add(1)
			}
		}()
	}
	wg.Wait()
	if calls.Load() != 1 || hits.Load() != 15 {
		t.Errorf("compute ran %d times with %d hits; want 1 and 15", calls.Load(), hits.Load())
	}

	// Distinct accel configs are distinct keys.
	_, hit, _ := c.Get(context.Background(), predKey{ir.Fingerprint(mod), niccc.AccelConfig{CRCEngine: true}}, compute)
	if hit || calls.Load() != 2 {
		t.Errorf("accel variant: hit=%v calls=%d, want miss and 2", hit, calls.Load())
	}
}

// TestFleetJobValidation checks malformed batches fail up front.
func TestFleetJobValidation(t *testing.T) {
	tool := quickTool(t)
	fl, err := New(tool, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fl.Run([]Job{{Name: "empty"}}); err == nil {
		t.Error("nil-module job accepted")
	}
	if _, err := New(nil, Config{}); err == nil {
		t.Error("nil tool accepted")
	}
}

// TestHistogramMerge holds Merge to real observations: over random
// duration sets A and B, the merge of a Hist's snapshot of A and one of B
// is the snapshot of one Hist that observed A and B — counts, n, min and
// max exactly, the mean to 1e-9 relative.
func TestHistogramMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	// Durations log-uniform over 1µs..4s, so every bucket, the overflow
	// included, is hit.
	draw := func() time.Duration { return time.Duration(1e3 * math.Exp(rng.Float64()*math.Log(4e6))) }
	for trial := 0; trial < 200; trial++ {
		var a, b, both Hist
		for i, n := 0, rng.Intn(40); i < n; i++ {
			d := draw()
			a.Observe(d)
			both.Observe(d)
		}
		for i, n := 0, rng.Intn(40); i < n; i++ {
			d := draw()
			b.Observe(d)
			both.Observe(d)
		}
		got, want := a.Snapshot().Merge(b.Snapshot()), both.Snapshot()
		if !reflect.DeepEqual(got.BoundsMs, want.BoundsMs) || !reflect.DeepEqual(got.Counts, want.Counts) ||
			got.N != want.N || got.MinMs != want.MinMs || got.MaxMs != want.MaxMs {
			t.Fatalf("trial %d: merged %+v\nwant %+v", trial, got, want)
		}
		if diff := math.Abs(got.MeanMs - want.MeanMs); diff > 1e-9*want.MeanMs {
			t.Fatalf("trial %d: merged mean %v ms, want %v ms", trial, got.MeanMs, want.MeanMs)
		}
	}
}

// TestStatsRendering pins the stats snapshot arithmetic.
func TestStatsRendering(t *testing.T) {
	var c collector
	c.record(Result{Elapsed: 1e6, CacheHit: true, Lint: analysis.Summary{Warnings: 1, Infos: 2}})
	c.record(Result{Elapsed: 3e6, Lint: analysis.Summary{Errors: 1}})
	c.record(Result{Elapsed: 2e9, Err: errors.New("x")})
	c.addWall(5e6)
	s := c.snapshot()
	if s.JobsCompleted != 2 || s.JobsFailed != 1 {
		t.Errorf("jobs: %+v", s)
	}
	// The cache counters are the store's, merged in by Fleet.Stats.
	if s.CacheHits != 0 || s.CacheMisses != 0 {
		t.Errorf("collector counted cache lookups: %+v", s)
	}
	s.CacheHits, s.CacheMisses = 1, 2
	s.setHitRate()
	if s.LintErrors != 1 || s.LintWarnings != 1 || s.LintInfos != 2 {
		t.Errorf("lint counts: %+v", s)
	}
	if got := s.CacheHitRate; got < 0.33 || got > 0.34 {
		t.Errorf("hit rate %v", got)
	}
	if s.Analyses.N != 3 || s.Analyses.MaxMs != 2000 || s.Analyses.MinMs != 1 {
		t.Errorf("histogram: %+v", s.Analyses)
	}
	// Overflow bucket holds the 2s outlier.
	if s.Analyses.Counts[len(s.Analyses.Counts)-1] != 1 {
		t.Errorf("overflow bucket: %v", s.Analyses.Counts)
	}
	// The CLI's -fleet footer, byte for byte: first as recorded, then with
	// every optional clause switched on.
	const footer = "jobs: 2 completed, 1 failed\n" +
		"prediction cache: 1 hits, 2 misses (33% hit rate)\n" +
		"lint findings: 1 errors, 1 warnings, 2 notes\n" +
		"analysis time: n=3 min=1ms mean=668ms max=2s [≤1ms:1 ≤5ms:1 +Inf:1]\n" +
		"batch wall time: 5ms\n"
	if out := s.String(); out != footer {
		t.Errorf("stats footer:\n%s\nwant:\n%s", out, footer)
	}
	s.JobsCanceled, s.JobsPanicked, s.CacheEvictions = 4, 1, 7
	s.PayloadLoops, s.PayloadKeyedStructs = 0, 3
	const full = "jobs: 2 completed, 1 failed, 4 canceled, 1 panicked\n" +
		"prediction cache: 1 hits, 2 misses (33% hit rate), 7 evicted\n" +
		"lint findings: 1 errors, 1 warnings, 2 notes\n" +
		"payload-dependent: 0 loop(s), 3 keyed structure(s)\n" +
		"analysis time: n=3 min=1ms mean=668ms max=2s [≤1ms:1 ≤5ms:1 +Inf:1]\n" +
		"batch wall time: 5ms\n"
	if out := s.String(); out != full {
		t.Errorf("stats footer:\n%s\nwant:\n%s", out, full)
	}
	if out := (Stats{}).String(); out != "jobs: 0 completed, 0 failed\n"+
		"prediction cache: 0 hits, 0 misses (0% hit rate)\n"+
		"lint findings: 0 errors, 0 warnings, 0 notes\n"+
		"analysis time: no analyses\nbatch wall time: 0s\n" {
		t.Errorf("empty stats footer:\n%s", out)
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFleetPanicIsolation checks that a panic inside one job's analysis
// is confined to that job's Result: the rest of the batch completes and
// the pool (the serving process, in -serve mode) survives.
func TestFleetPanicIsolation(t *testing.T) {
	tool := quickTool(t)
	e := click.Get("tcpack")
	mod := e.MustModule()
	ps := core.ProfileSetup{Setup: e.Setup, LPMTable: e.Routes}
	jobs := []Job{
		{Name: "ok-1", Mod: mod, PS: ps, WL: traffic.SmallFlows},
		{Name: "boom", Mod: mod, WL: traffic.SmallFlows, PS: core.ProfileSetup{
			Setup: func(*interp.Machine) error { panic("synthetic NF panic") },
		}},
		{Name: "ok-2", Mod: mod, PS: ps, WL: traffic.LargeFlows},
	}
	fl, err := New(tool, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	results, err := fl.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if !results[1].Panicked || results[1].Err == nil {
		t.Fatalf("panicking job not isolated: %+v", results[1])
	}
	if msg := results[1].Err.Error(); !strings.Contains(msg, "synthetic NF panic") || !strings.Contains(msg, "goroutine") {
		t.Errorf("panic error missing value or stack snippet:\n%s", msg)
	}
	for _, i := range []int{0, 2} {
		if results[i].Err != nil || results[i].Insights == nil {
			t.Errorf("job %d harmed by sibling panic: %+v", i, results[i].Err)
		}
	}
	s := fl.Stats()
	if s.JobsPanicked != 1 || s.JobsCompleted != 2 || s.JobsFailed != 0 {
		t.Errorf("stats: %d panicked, %d completed, %d failed", s.JobsPanicked, s.JobsCompleted, s.JobsFailed)
	}
}

// TestCachePanicRecovery checks that a prediction that panics neither
// deadlocks the jobs blocked on it nor poisons the key: the job that ran it
// reports the panic, jobs that waited on it fail with the store's
// sentinel, none counts a hit and nothing is retained.
func TestCachePanicRecovery(t *testing.T) {
	// A predictor without a vocabulary panics inside PredictModule.
	fl, err := New(&core.Clara{Predictor: &core.Predictor{}}, Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	jobs := make([]Job, 8)
	for i := range jobs {
		jobs[i] = Job{Mod: click.Get("tcpack").MustModule(), WL: traffic.SmallFlows}
	}
	results, err := fl.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	panicked := 0
	for i, r := range results {
		if r.Panicked {
			panicked++
		} else if !errors.Is(r.Err, memo.ErrPanicked) {
			t.Errorf("job %d: err = %v, want a panic or memo.ErrPanicked", i, r.Err)
		}
		if r.CacheHit || r.Insights != nil {
			t.Errorf("job %d: hit=%v insights=%v after a panicked prediction", i, r.CacheHit, r.Insights != nil)
		}
	}
	if panicked == 0 {
		t.Error("no job reported the panic")
	}
	if fl.modules.Len() != 0 {
		t.Errorf("panicked entry retained: %d", fl.modules.Len())
	}
	if s := fl.Stats(); s.CacheHits != 0 || s.CacheMisses != int64(len(jobs)) {
		t.Errorf("cache: %d hits, %d misses; want 0, %d", s.CacheHits, s.CacheMisses, len(jobs))
	}
}

// TestCacheContentHash checks the serving-mode fix: two modules compiled
// from the same source are distinct pointers but one cache entry, while
// different source stays distinct.
func TestCacheContentHash(t *testing.T) {
	src := click.Get("tcpack").Src
	m1, err := lang.Compile("req-1", src)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := lang.Compile("req-1", src)
	if err != nil {
		t.Fatal(err)
	}
	if m1 == m2 {
		t.Fatal("compiler returned a shared module; test needs fresh pointers")
	}
	c := memo.New[predKey, *core.ModulePrediction](predCacheCap)
	calls := 0
	compute := func() (*core.ModulePrediction, error) {
		calls++
		return &core.ModulePrediction{Name: "x"}, nil
	}
	if _, hit, _ := c.Get(context.Background(), predKey{hash: ir.Fingerprint(m1)}, compute); hit {
		t.Error("first request hit")
	}
	if _, hit, _ := c.Get(context.Background(), predKey{hash: ir.Fingerprint(m2)}, compute); !hit {
		t.Error("identical resubmitted source missed the cache")
	}
	if calls != 1 {
		t.Errorf("compute ran %d times, want 1", calls)
	}
	other, err := lang.Compile("req-2", click.Get("aggcounter").Src)
	if err != nil {
		t.Fatal(err)
	}
	if _, hit, _ := c.Get(context.Background(), predKey{hash: ir.Fingerprint(other)}, compute); hit {
		t.Error("different source hit")
	}
	if c.Len() != 2 {
		t.Errorf("cache holds %d entries, want 2", c.Len())
	}
}

// TestCacheLRUEviction checks the cap through the fleet: the least
// recently used prediction is evicted, a touched one survives, and both
// Result.CacheHit and Stats report what the store did.
func TestCacheLRUEviction(t *testing.T) {
	fl, err := New(quickTool(t), Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	fl.setCacheCap(2)
	// Touch tcpack so aggcounter is least recent when udpipencap arrives.
	steps := []struct {
		name string
		hit  bool
	}{
		{"tcpack", false}, {"aggcounter", false}, {"tcpack", true},
		{"udpipencap", false}, {"tcpack", true}, {"aggcounter", false},
	}
	for i, st := range steps {
		results, err := fl.Run([]Job{elementJob(st.name)})
		if err != nil || results[0].Err != nil {
			t.Fatalf("step %d (%s): %v / %v", i, st.name, err, results[0].Err)
		}
		if results[0].CacheHit != st.hit {
			t.Errorf("step %d (%s): CacheHit = %v, want %v", i, st.name, results[0].CacheHit, st.hit)
		}
	}
	if fl.modules.Len() != 2 {
		t.Errorf("cache holds %d entries, want cap 2", fl.modules.Len())
	}
	if s := fl.Stats(); s.CacheHits != 2 || s.CacheMisses != 4 || s.CacheEvictions != 2 {
		t.Errorf("cache: %d hits, %d misses, %d evicted; want 2, 4, 2", s.CacheHits, s.CacheMisses, s.CacheEvictions)
	}
}

// TestRunContextCancel proves a mid-batch cancellation stops the
// remaining jobs: with one worker pinned inside job 0, canceling the
// context marks every undispatched job canceled without running it, and
// job 0's own analysis aborts inside its profiling loop.
func TestRunContextCancel(t *testing.T) {
	tool := quickTool(t)
	mod := click.Get("tcpack").MustModule()
	const n = 6
	var executed atomic.Int32
	started := make(chan struct{}, n)
	release := make(chan struct{})
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = Job{
			Name: fmt.Sprintf("job-%d", i),
			Mod:  mod,
			WL:   traffic.SmallFlows,
			PS: core.ProfileSetup{Setup: func(*interp.Machine) error {
				executed.Add(1)
				started <- struct{}{}
				<-release
				return nil
			}},
		}
	}
	fl, err := New(tool, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var results []Result
	var runErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		results, runErr = fl.RunContext(ctx, jobs)
	}()
	<-started // job 0 is inside its Setup; the dispatcher is blocked on job 1
	cancel()
	// The dispatcher's only runnable path is now ctx.Done: wait until it
	// has marked the undispatched tail before letting job 0 continue.
	waitFor(t, "undispatched jobs marked canceled", func() bool {
		return fl.Stats().JobsCanceled >= n-1
	})
	close(release)
	<-done
	if !errors.Is(runErr, context.Canceled) {
		t.Fatalf("RunContext error = %v, want context.Canceled", runErr)
	}
	if got := executed.Load(); got != 1 {
		t.Errorf("%d jobs executed after cancel, want 1", got)
	}
	for i, r := range results {
		if !errors.Is(r.Err, context.Canceled) {
			t.Errorf("job %d: err = %v, want canceled", i, r.Err)
		}
		if r.Insights != nil {
			t.Errorf("job %d produced insights after cancel", i)
		}
	}
	if s := fl.Stats(); s.JobsCanceled != n {
		t.Errorf("stats: %d canceled, want %d", s.JobsCanceled, n)
	}
}

// TestCacheNoHitOnErroredSingleflight pins the accounting of a failed
// prediction: whether a job ran it or shared it from the job that did,
// it has no prediction, so it must not report or count a cache hit —
// otherwise errored jobs would inflate the hit rate the cluster
// coordinator uses to judge per-worker cache locality.
func TestCacheNoHitOnErroredSingleflight(t *testing.T) {
	fl, err := New(quickTool(t), Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	jobs := make([]Job, 8)
	for i := range jobs {
		jobs[i] = Job{Mod: &ir.Module{Name: "nohandler"}, WL: traffic.SmallFlows}
	}
	results, err := fl.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Err == nil || r.Panicked || r.CacheHit {
			t.Errorf("job %d: err=%v panicked=%v hit=%v; want a plain failure and no hit", i, r.Err, r.Panicked, r.CacheHit)
		}
	}
	if fl.modules.Len() != 0 {
		t.Errorf("failed entries retained: %d", fl.modules.Len())
	}
	s := fl.Stats()
	if s.CacheHits != 0 || s.CacheMisses != int64(len(jobs)) || s.JobsFailed != int64(len(jobs)) {
		t.Errorf("stats: %d hits, %d misses, %d failed; want 0, %d, %d",
			s.CacheHits, s.CacheMisses, s.JobsFailed, len(jobs), len(jobs))
	}
}

// TestCacheInFlightEviction holds four predictions in flight under a cap
// of 2, keyed as the fleet keys them: the store never exceeds the cap, the
// evicted in-flight computations still deliver to their callers, the
// evictions are counted, and an evicted module predicts again.
func TestCacheInFlightEviction(t *testing.T) {
	names := []string{"tcpack", "aggcounter", "udpipencap", "forcetcp"}
	c := memo.New[predKey, *core.ModulePrediction](2)
	release := make(chan struct{})
	got := make([]*core.ModulePrediction, len(names))
	var wg sync.WaitGroup
	for i, n := range names {
		started := make(chan struct{})
		wg.Add(1)
		go func(i int, n string) {
			defer wg.Done()
			got[i], _, _ = c.Get(context.Background(), predKey{hash: ir.Fingerprint(click.Get(n).MustModule())}, func() (*core.ModulePrediction, error) {
				close(started)
				<-release
				return &core.ModulePrediction{Name: n}, nil
			})
		}(i, n)
		<-started
		if c.Len() > 2 {
			t.Fatalf("after %d predictions in flight the cache holds %d entries, over cap 2", i+1, c.Len())
		}
	}
	if ev := c.Counts().Evictions; ev != 2 {
		t.Errorf("evictions = %d, want 2 (the first two in-flight predictions)", ev)
	}
	close(release)
	wg.Wait()
	for i, n := range names {
		if got[i] == nil || got[i].Name != n {
			t.Errorf("prediction %d = %+v, want %s", i, got[i], n)
		}
	}
	calls := 0
	if _, hit, _ := c.Get(context.Background(), predKey{hash: ir.Fingerprint(click.Get(names[0]).MustModule())}, func() (*core.ModulePrediction, error) {
		calls++
		return &core.ModulePrediction{}, nil
	}); hit || calls != 1 {
		t.Errorf("evicted key: hit=%v calls=%d, want recompute", hit, calls)
	}
}

// TestFleetPrewarmEviction runs a real cold batch whose distinct-module
// count exceeds the cache cap: predictions are evicted while others are in
// flight, and every job must still complete with a usable prediction.
func TestFleetPrewarmEviction(t *testing.T) {
	names := []string{"tcpack", "aggcounter", "udpipencap", "forcetcp", "timefilter"}
	var jobs []Job
	for _, n := range names {
		jobs = append(jobs, elementJob(n))
	}
	fl, err := New(quickTool(t), Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	fl.setCacheCap(2)
	results, err := fl.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Err != nil || r.Insights == nil {
			t.Errorf("job %d (%s) failed under eviction pressure: %v", i, r.Name, r.Err)
		}
	}
	if fl.modules.Len() > 2 {
		t.Errorf("cache holds %d entries, over cap 2", fl.modules.Len())
	}
	s := fl.Stats()
	if s.CacheEvictions != int64(len(names)-2) {
		t.Errorf("stats evictions = %d, want %d", s.CacheEvictions, len(names)-2)
	}
	if s.JobsCompleted != int64(len(names)) {
		t.Errorf("completed = %d, want %d", s.JobsCompleted, len(names))
	}
}
