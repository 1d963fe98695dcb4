package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"clara/internal/click"
	"clara/internal/core"
	"clara/internal/interp"
	"clara/internal/lang"
	"clara/internal/niccc"
	"clara/internal/synth"
	"clara/internal/traffic"
)

// The result store's contract, through the fleet: what is admitted, what
// the key tells apart, that a hit is indistinguishable from a fresh
// analysis, and that a job never inherits the fate of the job whose
// computation it waited on.

// stampedJob is elementJob as the request resolver builds it: the setup
// carries the element's name as its identity, so the job is memoisable.
func stampedJob(name string) Job {
	j := elementJob(name)
	j.PS.ID = name
	return j
}

func newFleet(t *testing.T, workers int) *Fleet {
	t.Helper()
	fl, err := New(quickTool(t), Config{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	return fl
}

// run1 runs one job and fails the test unless it produced insights.
func run1(t *testing.T, fl *Fleet, j Job) Result {
	t.Helper()
	res, err := fl.Run([]Job{j})
	if err != nil || res[0].Err != nil || res[0].Insights == nil {
		t.Fatalf("job %s: run error %v, job error %v", j.Name, err, res[0].Err)
	}
	return res[0]
}

func canonical(t *testing.T, ins *core.Insights) string {
	t.Helper()
	b, err := json.Marshal(ins)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestResultAdmission: a module's first job is computed and not kept, its
// second is computed and kept, its third is a lookup — and a stream of
// never-seen programs, whose prediction lookups all miss, never reaches
// the store at all (the unique-src property, as an assertion).
func TestResultAdmission(t *testing.T) {
	fl := newFleet(t, 2)
	j := stampedJob("tcpack")
	for i, want := range []struct {
		cacheHit, resultHit bool
		resident            int
		column              string // what Summary's CACHE column says answered
	}{{false, false, 0, " miss "}, {true, false, 1, " hit "}, {true, true, 1, " result "}, {true, true, 1, " result "}} {
		r := run1(t, fl, j)
		if tab := Summary([]Result{r}); !strings.Contains(tab, want.column) {
			t.Errorf("sighting %d: CACHE column is not%q:\n%s", i+1, want.column, tab)
		}
		if r.CacheHit != want.cacheHit || r.ResultHit != want.resultHit || fl.results.Len() != want.resident {
			t.Errorf("sighting %d: cache hit %v, result hit %v, %d resident; want %v, %v, %d",
				i+1, r.CacheHit, r.ResultHit, fl.results.Len(), want.cacheHit, want.resultHit, want.resident)
		}
	}
	if s := fl.Stats(); s.Results.Hits != 2 || s.Results.Misses != 1 || s.Results.Resident != 1 ||
		s.CacheHits != 3 || s.CacheMisses != 1 || s.Predictions.Resident != 1 {
		t.Errorf("stats: results %+v, predictions %+v; want 2/1 with 1 resident, 3/1 with 1 resident", s.Results, s.Predictions)
	}

	mods, err := click.Modules(click.Table2Order)
	if err != nil {
		t.Fatal(err)
	}
	prof := core.CorpusProfile(mods)
	fresh := newFleet(t, 2)
	jobs := make([]Job, 300)
	for p := range jobs {
		name := fmt.Sprintf("u%d", p)
		mod, err := lang.Compile(name, synth.Generate(synth.Config{Profile: prof, Seed: 1000003 + int64(p)}))
		if err != nil {
			t.Fatal(err)
		}
		jobs[p] = Job{Name: name, Mod: mod, WL: traffic.MediumMix}
	}
	if _, err := fresh.Run(jobs); err != nil {
		t.Fatal(err)
	}
	if s := fresh.Stats(); s.Results.Resident != 0 || s.Results.Hits+s.Results.Misses != 0 || s.CacheMisses != 300 {
		t.Errorf("300 never-seen programs: results %+v, %d prediction misses; want an untouched store and 300", s.Results, s.CacheMisses)
	}
}

// TestResultKeyComponents: each component of the key, changed alone, turns
// what would have been a hit into a miss — and into an entry of its own.
func TestResultKeyComponents(t *testing.T) {
	fl := newFleet(t, 1)
	base := stampedJob("tcpack")
	for i := 0; i < 3; i++ {
		run1(t, fl, base)
	}
	if fl.results.Len() != 1 {
		t.Fatalf("base job not stored: %d resident", fl.results.Len())
	}

	variants := map[string]Job{}
	add := func(what string, edit func(*Job)) {
		j := base
		edit(&j)
		variants[what] = j
	}
	add("accel", func(j *Job) { j.Accel = niccc.AccelConfig{CRCEngine: true} })
	add("setup identity", func(j *Job) { j.PS.ID = "tcpack-other-routes" })
	renamed, err := lang.Compile("tcpack2", click.Get("tcpack").Src)
	if err != nil {
		t.Fatal(err)
	}
	add("module name, identical body", func(j *Job) { j.Mod = renamed })
	// Every field of the spec, whatever fields it grows: the key holds the
	// spec whole.
	spec := reflect.TypeOf(traffic.Spec{})
	for f := 0; f < spec.NumField(); f++ {
		f := f
		add("traffic."+spec.Field(f).Name, func(j *Job) {
			v := reflect.ValueOf(&j.WL).Elem().Field(f)
			switch v.Kind() {
			case reflect.String:
				v.SetString(v.String() + "-x")
			case reflect.Int, reflect.Int64:
				v.SetInt(v.Int() + 1)
			case reflect.Uint32:
				v.SetUint(v.Uint() + 1)
			case reflect.Float64:
				v.SetFloat(v.Float() + 0.01)
			default:
				t.Fatalf("traffic.Spec.%s: kind %s not handled by this test", spec.Field(f).Name, v.Kind())
			}
		})
	}

	resident := 1
	for what, j := range variants {
		// A variant that changes the prediction key first has to be seen
		// once; after that its lookup reaches the result store.
		r := run1(t, fl, j)
		if !r.CacheHit {
			r = run1(t, fl, j)
		}
		resident++
		if !r.CacheHit || r.ResultHit || fl.results.Len() != resident {
			t.Errorf("%s: cache hit %v, result hit %v, %d resident; want a result miss stored as entry %d",
				what, r.CacheHit, r.ResultHit, fl.results.Len(), resident)
		}
		if r := run1(t, fl, j); !r.ResultHit {
			t.Errorf("%s: its own repeat is not a hit", what)
		}
	}
	if r := run1(t, fl, base); !r.ResultHit {
		t.Error("base job no longer hits after its variants were stored")
	}
}

// TestResultNeedsIdentity: a job that seeds state or routes without saying
// what they are is never stored, however often it repeats — a func cannot
// be compared, and two setups on one module are two different jobs.
func TestResultNeedsIdentity(t *testing.T) {
	fl := newFleet(t, 1)
	for _, name := range []string{"firewall", "iplookup"} {
		j := elementJob(name)
		if j.PS.Setup == nil && j.PS.LPMTable == nil {
			t.Fatalf("%s has no setup to be anonymous about", name)
		}
		for i := 0; i < 4; i++ {
			if r := run1(t, fl, j); r.ResultHit {
				t.Errorf("%s, sighting %d: anonymous setup answered from the store", name, i+1)
			}
		}
	}
	if s := fl.results.Stats(); s.Resident != 0 || s.Hits+s.Misses != 0 {
		t.Errorf("anonymous setups reached the result store: %+v", s)
	}
	// Source with no setup at all has nothing to name.
	mod, err := lang.Compile("submitted", click.Get("tcpack").Src)
	if err != nil {
		t.Fatal(err)
	}
	j := Job{Name: "submitted", Mod: mod, WL: traffic.SmallFlows}
	run1(t, fl, j)
	run1(t, fl, j)
	if r := run1(t, fl, j); !r.ResultHit {
		t.Error("setup-less source job is not memoised")
	}
}

// TestResultHitEqualsFreshAnalyze: a hit after a miss, and a hit after the
// entry was evicted and computed again, both carry Insights whose JSON is
// what a fresh Tool.Analyze encodes to; and the wire form is encoded once
// per stored analysis, not once per Result.
func TestResultHitEqualsFreshAnalyze(t *testing.T) {
	tool := quickTool(t)
	fl := newFleet(t, 1)
	fl.setResultCap(1)
	a, b := stampedJob("mazunat"), stampedJob("dnsproxy")
	fresh := func(j Job) string {
		ins, err := tool.Analyze(j.Mod, j.PS, j.WL)
		if err != nil {
			t.Fatal(err)
		}
		return canonical(t, ins)
	}
	wantA, wantB := fresh(a), fresh(b)

	encodes := 0
	encode := func(ins *core.Insights) ([]byte, error) {
		encodes++
		return json.Marshal(ins)
	}
	hit := func(j Job, want, when string) Result {
		t.Helper()
		r := run1(t, fl, j)
		if !r.ResultHit {
			t.Fatalf("%s %s: not a result hit", j.Name, when)
		}
		if got := canonical(t, r.Insights); got != want {
			t.Errorf("%s %s: insights differ from a fresh Tool.Analyze", j.Name, when)
		}
		return r
	}

	run1(t, fl, a)
	stored := run1(t, fl, a)
	first, err := stored.EncodedInsights(encode)
	if err != nil || string(first) != wantA {
		t.Fatalf("stored analysis encodes to something else than Tool.Analyze's insights (err %v)", err)
	}
	for i := 0; i < 3; i++ {
		r := hit(a, wantA, "after its miss")
		again, err := r.EncodedInsights(encode)
		if err != nil || &again[0] != &first[0] {
			t.Errorf("hit %d: encoded insights are not the stored bytes (err %v)", i, err)
		}
	}
	if encodes != 1 {
		t.Errorf("insights encoded %d times over one store and three hits, want 1", encodes)
	}

	run1(t, fl, b)
	run1(t, fl, b) // stores b, evicting a
	hit(b, wantB, "after evicting the other key")
	if r := run1(t, fl, a); r.ResultHit {
		t.Fatal("evicted key still hits")
	}
	hit(a, wantA, "after eviction and recompute")
	if s := fl.results.Stats(); s.Evictions != 2 || s.Resident != 1 {
		t.Errorf("result store %+v, want 2 evictions and 1 resident under cap 1", s)
	}
}

// TestResultHitStats: the per-job figures Stats totals are built from ride
// in the stored value, so N hits add exactly N times what the miss added.
func TestResultHitStats(t *testing.T) {
	fl := newFleet(t, 1)
	j := stampedJob("dnsproxy")
	miss := run1(t, fl, j)
	one := fl.Stats()
	if one.LintInfos+one.LintWarnings+one.LintErrors == 0 || one.PayloadLoops+one.PayloadKeyedStructs == 0 {
		t.Fatalf("dnsproxy has no lint or payload findings to total: %+v", one)
	}
	const n = 6
	for i := 0; i < n; i++ {
		r := run1(t, fl, j)
		if r.Lint != miss.Lint || r.PayloadLoops != miss.PayloadLoops || r.PayloadKeyedStructs != miss.PayloadKeyedStructs {
			t.Errorf("repeat %d: per-job figures %+v/%d/%d differ from the miss's", i, r.Lint, r.PayloadLoops, r.PayloadKeyedStructs)
		}
	}
	s := fl.Stats()
	if s.Results.Hits != n-1 {
		t.Fatalf("%d result hits over %d repeats, want %d", s.Results.Hits, n, n-1)
	}
	for what, got := range map[string][2]int64{
		"lint errors":           {s.LintErrors, one.LintErrors},
		"lint warnings":         {s.LintWarnings, one.LintWarnings},
		"lint notes":            {s.LintInfos, one.LintInfos},
		"payload loops":         {s.PayloadLoops, one.PayloadLoops},
		"payload-keyed structs": {s.PayloadKeyedStructs, one.PayloadKeyedStructs},
		"jobs completed":        {s.JobsCompleted, one.JobsCompleted},
	} {
		if got[0] != (n+1)*got[1] {
			t.Errorf("%s: %d after %d jobs, want %d × %d", what, got[0], n+1, n+1, got[1])
		}
	}
}

// attachCtx counts Done calls. Store.Get evaluates ctx.Done() once per
// lookup of a resident key, after it holds the entry: a job's first call is
// its prediction lookup, its second its result lookup — so once calls
// reaches 2 the job is attached to the in-flight result computation.
type attachCtx struct {
	context.Context
	calls atomic.Int32
}

func (c *attachCtx) Done() <-chan struct{} {
	c.calls.Add(1)
	return c.Context.Done()
}

// gatedSetup returns a Setup whose first invocation signals started and
// then blocks until release is closed; later invocations return at once.
func gatedSetup(started chan<- struct{}, release <-chan struct{}) func(*interp.Machine) error {
	var calls atomic.Int32
	return func(*interp.Machine) error {
		if calls.Add(1) == 1 {
			close(started)
			<-release
		}
		return nil
	}
}

// seen makes mod's prediction resident, so the next job on it is admitted
// to the result store.
func seen(t *testing.T, fl *Fleet, name string) {
	t.Helper()
	j := elementJob(name)
	j.PS = core.ProfileSetup{}
	if r, err := fl.Run([]Job{j}); err != nil || r[0].Err != nil {
		t.Fatalf("warming %s's prediction: %v %v", name, err, r[0].Err)
	}
}

// TestWaiterSurvivesLeaderCancel: the job leading a result computation is
// canceled mid-profile while another job waits on it. The waiter gets
// insights of its own, not its leader's context.Canceled.
func TestWaiterSurvivesLeaderCancel(t *testing.T) {
	fl := newFleet(t, 2)
	seen(t, fl, "tcpack")
	started, release := make(chan struct{}), make(chan struct{})
	j := stampedJob("tcpack")
	j.PS.Setup = gatedSetup(started, release)

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	defer cancelLeader()
	var wg sync.WaitGroup
	var leader, waiter []Result
	wg.Add(1)
	go func() {
		defer wg.Done()
		leader, _ = fl.RunContext(leaderCtx, []Job{j})
	}()
	<-started // the leader is inside its analysis, holding the entry
	wctx := &attachCtx{Context: context.Background()}
	wg.Add(1)
	go func() {
		defer wg.Done()
		waiter, _ = fl.RunContext(wctx, []Job{j})
	}()
	waitFor(t, "the waiter to attach to the leader's computation", func() bool { return wctx.calls.Load() >= 2 })
	cancelLeader()
	close(release) // the leader's profile loop now sees its context gone
	wg.Wait()

	if !errors.Is(leader[0].Err, context.Canceled) {
		t.Errorf("leader: err %v, want context.Canceled", leader[0].Err)
	}
	if waiter[0].Err != nil || waiter[0].Insights == nil || waiter[0].ResultHit {
		t.Errorf("waiter: err %v, insights %v, result hit %v; want its own fresh insights", waiter[0].Err, waiter[0].Insights != nil, waiter[0].ResultHit)
	}
	// The failed computation is not retained and the waiter's own is not
	// stored: it kept nothing.
	if s := fl.results.Stats(); s.Resident != 0 || s.Misses != 2 || s.Hits != 0 {
		t.Errorf("result store %+v, want 2 misses and nothing resident", s)
	}
}

// TestPanicStaysPerJob: when the leading job's analysis panics, the jobs
// waiting on it do not report a borrowed failure — each runs into the
// panic itself and reports it with its own stack.
func TestPanicStaysPerJob(t *testing.T) {
	const n = 4
	fl := newFleet(t, n)
	seen(t, fl, "tcpack")
	started, release := make(chan struct{}), make(chan struct{})
	gate := gatedSetup(started, release)
	j := stampedJob("tcpack")
	j.PS.Setup = func(m *interp.Machine) error {
		gate(m) //nolint:errcheck // always nil
		panic("poisoned setup")
	}
	results := make([]Result, n)
	ctxs := make([]*attachCtx, n)
	var wg sync.WaitGroup
	start := func(i int) {
		ctxs[i] = &attachCtx{Context: context.Background()}
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, _ := fl.RunContext(ctxs[i], []Job{j})
			results[i] = r[0]
		}()
	}
	start(0)
	<-started
	for i := 1; i < n; i++ {
		start(i)
	}
	waitFor(t, "every waiter to attach", func() bool {
		for _, c := range ctxs[1:] {
			if c.calls.Load() < 2 {
				return false
			}
		}
		return true
	})
	close(release)
	wg.Wait()
	for i, r := range results {
		if !r.Panicked || r.Err == nil || r.Insights != nil {
			t.Errorf("job %d: panicked %v, err %v; want its own panic", i, r.Panicked, r.Err)
			continue
		}
		if msg := r.Err.Error(); !strings.Contains(msg, "poisoned setup") || !strings.Contains(msg, "goroutine") {
			t.Errorf("job %d: error carries no panic value or stack of its own:\n%s", i, msg)
		}
	}
	if s := fl.Stats(); s.JobsPanicked != n || s.Results.Resident != 0 {
		t.Errorf("stats: %d panicked, %d results resident; want %d and 0", s.JobsPanicked, s.Results.Resident, n)
	}
}

// TestWaiterKeepsItsOwnDeadline: a job with a 5 ms deadline, waiting on a
// leader that is stuck, gives up when its own deadline passes.
func TestWaiterKeepsItsOwnDeadline(t *testing.T) {
	fl := newFleet(t, 2)
	seen(t, fl, "tcpack")
	started, release := make(chan struct{}), make(chan struct{})
	j := stampedJob("tcpack")
	j.PS.Setup = gatedSetup(started, release)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if r, err := fl.Run([]Job{j}); err != nil || r[0].Err != nil {
			t.Errorf("leader: %v %v", err, r[0].Err)
		}
	}()
	<-started

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	t0 := time.Now()
	res, err := fl.RunContext(ctx, []Job{j})
	waited := time.Since(t0)
	if !errors.Is(err, context.DeadlineExceeded) || !errors.Is(res[0].Err, context.DeadlineExceeded) {
		t.Errorf("waiter: run error %v, job error %v; want DeadlineExceeded", err, res[0].Err)
	}
	// The leader is still blocked: only the waiter's own deadline can have
	// ended the wait. The bound is loose for a loaded race-detector run.
	if waited > 2*time.Second {
		t.Errorf("waiter returned after %s, its deadline was 5ms", waited)
	}
	close(release)
	wg.Wait()
	if r := run1(t, fl, j); !r.ResultHit {
		t.Error("the leader's result was not stored after an impatient waiter left")
	}
}

// TestBatchSharesModuleFacts: a batch computes each module's static half
// once, however many workloads it analyzes the module under, and the
// results are exactly what one-job runs give, each of which computes its
// own. The whole library batch computes one per element.
func TestBatchSharesModuleFacts(t *testing.T) {
	facts := countFacts(t)
	var jobs []Job
	for _, wl := range []traffic.Spec{traffic.SmallFlows, traffic.LargeFlows, traffic.MediumMix} {
		j := elementJob("dnsproxy")
		j.WL = wl
		jobs = append(jobs, j)
	}
	res, err := newFleet(t, 3).Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if n := facts.Load(); n != 1 {
		t.Errorf("one module under 3 workloads: %d static halves, want 1", n)
	}
	for i, j := range jobs {
		if res[i].Err != nil {
			t.Fatalf("%s/%s: %v", j.Name, j.WL.Name, res[i].Err)
		}
		facts.Store(0)
		alone := run1(t, newFleet(t, 1), j)
		if got, want := canonical(t, res[i].Insights), canonical(t, alone.Insights); got != want {
			t.Errorf("%s/%s: batch insights differ from a one-job run:\n%s\n%s", j.Name, j.WL.Name, got, want)
		}
		if n := facts.Load(); n != 1 {
			t.Errorf("one-job run: %d static halves, want 1", n)
		}
	}

	facts.Store(0)
	if _, err := newFleet(t, 8).Run(libraryJobs(t)); err != nil {
		t.Fatal(err)
	}
	if n := int64(len(click.Table2Order)); facts.Load() != n {
		t.Errorf("library batch: %d static halves, want %d", facts.Load(), n)
	}
}
