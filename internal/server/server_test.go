package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"clara/internal/analysis"
	"clara/internal/click"
	"clara/internal/core"
	"clara/internal/fleet"
	"clara/internal/interp"
	"clara/internal/memo"
	"clara/internal/nicsim"
	"clara/internal/synth"
)

// The trained tool is shared across tests; training dominates test time
// and the trained models are read-only.
var (
	toolOnce sync.Once
	testTool *core.Clara
	toolErr  error
)

func quickTool(t testing.TB) *core.Clara {
	t.Helper()
	toolOnce.Do(func() {
		const seed = 7
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
		algo, err := core.TrainAlgoIdentifier(synth.AlgoCorpus(12, seed), 48, seed)
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

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	cfg.Tool = quickTool(t)
	if cfg.Workers == 0 {
		cfg.Workers = 2
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func postJSON(t *testing.T, h http.Handler, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	blob, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest("POST", path, bytes.NewReader(blob))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func decodeAnalyze(t *testing.T, rec *httptest.ResponseRecorder) AnalyzeResponse {
	t.Helper()
	var resp AnalyzeResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("bad analyze response (%d): %v\n%s", rec.Code, err, rec.Body.String())
	}
	return resp
}

// TestAnalyzeSubmittedSource is the end-to-end serving path: POST NFC
// source, get JSON insights back — and a resubmission of the same
// source hits the content-hashed prediction cache even though it is
// compiled to a fresh module.
func TestAnalyzeSubmittedSource(t *testing.T) {
	s := newTestServer(t, Config{})
	src := click.Get("tcpack").Src
	rec := postJSON(t, s.Handler(), "/v1/analyze", AnalyzeRequest{Src: src, Name: "submitted-tcpack", Workload: "mix"})
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d:\n%s", rec.Code, rec.Body.String())
	}
	resp := decodeAnalyze(t, rec)
	if len(resp.Results) != 1 {
		t.Fatalf("got %d results", len(resp.Results))
	}
	r := resp.Results[0]
	if r.Error != "" || r.Insights == nil || r.Insights.Prediction == nil {
		t.Fatalf("no insights: %+v", r)
	}
	if r.Name != "submitted-tcpack" || r.Workload != "medium-mix" && r.Workload == "" {
		t.Errorf("bad labels: %+v", r)
	}
	if r.Insights.Prediction.TotalCompute <= 0 {
		t.Errorf("empty prediction: %+v", r.Insights.Prediction)
	}
	if r.CacheHit {
		t.Error("first submission claimed a cache hit")
	}

	rec2 := postJSON(t, s.Handler(), "/v1/analyze", AnalyzeRequest{Src: src, Name: "submitted-tcpack", Workload: "small"})
	resp2 := decodeAnalyze(t, rec2)
	if !resp2.Results[0].CacheHit {
		t.Error("resubmitted source missed the prediction cache")
	}
}

// TestAnalyzeLibraryBatch analyzes library elements by name, as a batch.
func TestAnalyzeLibraryBatch(t *testing.T) {
	s := newTestServer(t, Config{})
	rec := postJSON(t, s.Handler(), "/v1/analyze", AnalyzeRequest{NFs: []string{"tcpack", "aggcounter"}})
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d:\n%s", rec.Code, rec.Body.String())
	}
	resp := decodeAnalyze(t, rec)
	if len(resp.Results) != 2 {
		t.Fatalf("got %d results", len(resp.Results))
	}
	for _, r := range resp.Results {
		if r.Error != "" || r.Insights == nil {
			t.Errorf("job %s failed: %s", r.Name, r.Error)
		}
	}
}

// TestAnalyzeValidation pins the 400 paths.
func TestAnalyzeValidation(t *testing.T) {
	s := newTestServer(t, Config{})
	for name, body := range map[string]AnalyzeRequest{
		"no selector":      {},
		"two selectors":    {NF: "tcpack", Src: "void handle() {}"},
		"unknown element":  {NF: "nosuch"},
		"unknown workload": {NF: "tcpack", Workload: "insane"},
		"bad source":       {Src: "not nfc at all ("},
	} {
		if rec := postJSON(t, s.Handler(), "/v1/analyze", body); rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, rec.Code)
		}
	}
	req := httptest.NewRequest("POST", "/v1/analyze", strings.NewReader("{not json"))
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("malformed JSON: status %d, want 400", rec.Code)
	}
}

// TestLintOnly exercises the static path: no profiling, and findings
// for SmartNIC-hostile source.
func TestLintOnly(t *testing.T) {
	s := newTestServer(t, Config{})
	rec := postJSON(t, s.Handler(), "/v1/lint", LintRequest{
		Name: "floaty",
		Src: `void handle() {
	u32 rate = ewma_rate(u32(pkt_len()));
	if (rate > 1000000) { pkt_drop(); return; }
	pkt_send(0);
}
`,
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d:\n%s", rec.Code, rec.Body.String())
	}
	var resp LintResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Diagnostics) == 0 {
		t.Fatal("float-using NF linted clean")
	}
	found := false
	for _, d := range resp.Diagnostics {
		if strings.Contains(d.Rule, "float") {
			found = true
		}
	}
	if !found {
		t.Errorf("no float rule fired: %+v", resp.Diagnostics)
	}

	rec = postJSON(t, s.Handler(), "/v1/lint", LintRequest{NF: "tcpack"})
	if rec.Code != http.StatusOK {
		t.Fatalf("library lint status %d", rec.Code)
	}
}

// blockingHook returns a job hook whose Setup announces itself on
// started and then blocks until release is closed.
func blockingHook(started chan<- struct{}, release <-chan struct{}) func(*fleet.Job) {
	return func(j *fleet.Job) {
		j.PS = core.ProfileSetup{Setup: func(*interp.Machine) error {
			started <- struct{}{}
			<-release
			return nil
		}}
	}
}

// TestQueueFullBackpressure fills the admission queue with one pinned
// request and checks the next one is rejected with 429 — visible
// backpressure, not unbounded queueing.
func TestQueueFullBackpressure(t *testing.T) {
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	s := newTestServer(t, Config{QueueDepth: 1, Workers: 1,
		JobHook: blockingHook(started, release)})

	firstDone := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		firstDone <- postJSON(t, s.Handler(), "/v1/analyze", AnalyzeRequest{NF: "tcpack"})
	}()
	<-started // the slot is held and the analysis is in flight

	rec := postJSON(t, s.Handler(), "/v1/analyze", AnalyzeRequest{NF: "aggcounter"})
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429:\n%s", rec.Code, rec.Body.String())
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	close(release)
	if rec := <-firstDone; rec.Code != http.StatusOK {
		t.Fatalf("pinned request failed: %d\n%s", rec.Code, rec.Body.String())
	}
	snap := s.met.snapshot(s.fl.Stats(), len(s.sem), cap(s.sem))
	if snap.Requests["analyze"].Rejected != 1 {
		t.Errorf("rejected count = %d, want 1", snap.Requests["analyze"].Rejected)
	}
}

// TestClientCancelStopsAnalysis proves a client disconnect cancels the
// underlying fleet work: the analysis aborts inside its profiling loop
// and the fleet records a canceled job, not a completed one.
func TestClientCancelStopsAnalysis(t *testing.T) {
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	s := newTestServer(t, Config{Workers: 1, JobHook: blockingHook(started, release)})

	blob, _ := json.Marshal(AnalyzeRequest{NF: "tcpack"})
	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest("POST", "/v1/analyze", bytes.NewReader(blob)).WithContext(ctx)
	rec := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.Handler().ServeHTTP(rec, req)
	}()
	<-started // analysis running; worker pinned in Setup
	cancel()  // client goes away
	close(release)
	<-done

	fs := s.fl.Stats()
	if fs.JobsCanceled != 1 {
		t.Errorf("fleet canceled jobs = %d, want 1 (completed=%d failed=%d)",
			fs.JobsCanceled, fs.JobsCompleted, fs.JobsFailed)
	}
	snap := s.met.snapshot(fs, len(s.sem), cap(s.sem))
	if snap.Requests["analyze"].Canceled != 1 {
		t.Errorf("canceled request count = %d, want 1", snap.Requests["analyze"].Canceled)
	}
}

// TestRequestTimeout checks the per-request deadline: an analysis that
// cannot finish inside timeout_ms answers 504, and /metrics records how
// long that took.
func TestRequestTimeout(t *testing.T) {
	started := make(chan struct{}, 4)
	release := make(chan struct{})
	defer close(release)
	hook := func(j *fleet.Job) {
		j.PS = core.ProfileSetup{Setup: func(*interp.Machine) error {
			started <- struct{}{}
			select {
			case <-release:
			case <-time.After(5 * time.Second):
			}
			return nil
		}}
	}
	s := newTestServer(t, Config{Workers: 1, JobHook: hook})
	rec := postJSON(t, s.Handler(), "/v1/analyze", AnalyzeRequest{NF: "tcpack", TimeoutMs: 50})
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504:\n%s", rec.Code, rec.Body.String())
	}
	// The failure enters the latency histogram at the time it took, not
	// at zero (which dragged min and mean down with every error).
	if h := metricsSnap(t, s.Handler()).Latency["analyze"]; h.N != 1 || h.MinMs <= 0 || h.MaxMs < 50 {
		t.Errorf("timed-out request's latency: n=%d min=%vms max=%vms, want n=1 and >= the 50ms timeout", h.N, h.MinMs, h.MaxMs)
	}
}

// TestHugeTimeoutMeansCap: a timeout_ms too large for a time.Duration
// is at or above the server's cap, so the request runs under the cap. (It
// used to overflow to a negative deadline and answer 504 at once.)
func TestHugeTimeoutMeansCap(t *testing.T) {
	s := newTestServer(t, Config{})
	rec := postJSON(t, s.Handler(), "/v1/analyze", AnalyzeRequest{NF: "tcpack", TimeoutMs: 10_000_000_000_000})
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d, want 200:\n%s", rec.Code, rec.Body.String())
	}
}

// TestPanickingNFIsolation submits a job whose analysis panics: the
// batch is still delivered as 200 with the per-job error in its result
// and the failure count in X-Clara-Failed-Jobs, and the server keeps
// serving. (A 500 here would make retrying proxies re-run the whole
// batch against a deterministic fault.)
func TestPanickingNFIsolation(t *testing.T) {
	s := newTestServer(t, Config{
		JobHook: func(j *fleet.Job) {
			j.PS = core.ProfileSetup{Setup: func(*interp.Machine) error {
				panic("synthetic NF panic")
			}}
		},
	})
	rec := postJSON(t, s.Handler(), "/v1/analyze", AnalyzeRequest{NF: "tcpack"})
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d, want 200:\n%s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get(FailedJobsHeader); got != "1" {
		t.Fatalf("%s = %q, want \"1\"", FailedJobsHeader, got)
	}
	resp := decodeAnalyze(t, rec)
	if !resp.Results[0].Panicked || !strings.Contains(resp.Results[0].Error, "synthetic NF panic") {
		t.Fatalf("panic not surfaced: %+v", resp.Results[0])
	}

	// The process survived; a clean request still works.
	s2 := newTestServer(t, Config{})
	_ = s2
	rec = postJSON(t, s.Handler(), "/v1/lint", LintRequest{NF: "tcpack"})
	if rec.Code != http.StatusOK {
		t.Fatalf("server unhealthy after panic: %d", rec.Code)
	}
	if got := s.fl.Stats().JobsPanicked; got != 1 {
		t.Errorf("panicked jobs = %d, want 1", got)
	}
}

// TestPartialBatchFailure analyzes a batch where exactly one job fails:
// the response is 200 with the good job's insights intact, the bad
// job's error inline, and X-Clara-Failed-Jobs counting the failures.
func TestPartialBatchFailure(t *testing.T) {
	s := newTestServer(t, Config{
		JobHook: func(j *fleet.Job) {
			if j.Name == "aggcounter" {
				j.PS = core.ProfileSetup{Setup: func(*interp.Machine) error {
					panic("poisoned element")
				}}
			}
		},
	})
	rec := postJSON(t, s.Handler(), "/v1/analyze", AnalyzeRequest{NFs: []string{"tcpack", "aggcounter"}})
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d, want 200:\n%s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get(FailedJobsHeader); got != "1" {
		t.Fatalf("%s = %q, want \"1\"", FailedJobsHeader, got)
	}
	resp := decodeAnalyze(t, rec)
	if len(resp.Results) != 2 {
		t.Fatalf("got %d results", len(resp.Results))
	}
	if resp.Results[0].Error != "" || resp.Results[0].Insights == nil {
		t.Errorf("good job damaged: %+v", resp.Results[0])
	}
	if resp.Results[1].Error == "" || !resp.Results[1].Panicked {
		t.Errorf("bad job not surfaced: %+v", resp.Results[1])
	}

	// An all-good batch must not carry the header.
	rec = postJSON(t, s.Handler(), "/v1/analyze", AnalyzeRequest{NFs: []string{"tcpack", "udpipencap"}})
	if rec.Code != http.StatusOK || rec.Header().Get(FailedJobsHeader) != "" {
		t.Fatalf("clean batch: status %d, header %q", rec.Code, rec.Header().Get(FailedJobsHeader))
	}
}

// TestOversizeStateFailsBeforeProfiling: a 70-byte source declaring a
// 1.2 GB array lints state-oversize as an error — no NIC tier can hold it —
// and used to be profiled anyway: the host allocated the whole array and
// only then did placement fail. The job must fail with that diagnostic
// before any machine is built, as a per-job error on a 200.
func TestOversizeStateFailsBeforeProfiling(t *testing.T) {
	s := newTestServer(t, Config{})
	src := "global u64 a[150000000]; void handle(){ a[1]=2; pkt_send(0); }"
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rec := postJSON(t, s.Handler(), "/v1/analyze", AnalyzeRequest{Src: src, Name: "huge", Workload: "small"})
	runtime.ReadMemStats(&after)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d, want 200:\n%s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get(FailedJobsHeader); got != "1" {
		t.Fatalf("%s = %q, want \"1\"", FailedJobsHeader, got)
	}
	resp := decodeAnalyze(t, rec)
	if len(resp.Results) != 1 || resp.Results[0].Insights != nil ||
		!strings.Contains(resp.Results[0].Error, analysis.RuleStateOversize) {
		t.Errorf("want a state-oversize job error, got %+v", resp.Results)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 16<<20 {
		t.Errorf("request allocated %d MB, want < 16 (the array was built)", grew>>20)
	}
}

// TestDrainWinsOver429: a server that is both full and draining must
// answer 503 "shutting down", not 429 "retry later" — a client told to
// retry would hammer a process that is about to exit instead of failing
// over.
func TestDrainWinsOver429(t *testing.T) {
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	s := newTestServer(t, Config{QueueDepth: 1, Workers: 1,
		JobHook: blockingHook(started, release)})

	firstDone := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		firstDone <- postJSON(t, s.Handler(), "/v1/analyze", AnalyzeRequest{NF: "tcpack"})
	}()
	<-started // queue is now full (the one slot is held)

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownDone <- s.Shutdown(ctx)
	}()
	for !s.Draining() {
		time.Sleep(time.Millisecond)
	}

	rec := postJSON(t, s.Handler(), "/v1/analyze", AnalyzeRequest{NF: "aggcounter"})
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("full+draining: status %d, want 503:\n%s", rec.Code, rec.Body.String())
	}

	close(release)
	if rec := <-firstDone; rec.Code != http.StatusOK {
		t.Fatalf("drained request failed: %d", rec.Code)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestRetryAfterScalesWithOccupancy pins three slots of a depth-3 queue
// on a one-worker server and checks the rejected request's Retry-After
// reflects the occupancy (3 requests ahead / 1 worker = 3s), not a
// hardcoded constant.
func TestRetryAfterScalesWithOccupancy(t *testing.T) {
	started := make(chan struct{}, 3)
	release := make(chan struct{})
	s := newTestServer(t, Config{QueueDepth: 3, Workers: 1,
		JobHook: blockingHook(started, release)})

	var wg sync.WaitGroup
	for _, nf := range []string{"tcpack", "aggcounter", "udpipencap"} {
		wg.Add(1)
		go func(nf string) {
			defer wg.Done()
			postJSON(t, s.Handler(), "/v1/analyze", AnalyzeRequest{NF: nf})
		}(nf)
	}
	for i := 0; i < 3; i++ {
		<-started
	}

	rec := postJSON(t, s.Handler(), "/v1/analyze", AnalyzeRequest{NF: "forcetcp"})
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429:\n%s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get("Retry-After"); got != "3" {
		t.Errorf("Retry-After = %q, want \"3\" (3 held slots / 1 worker)", got)
	}
	close(release)
	wg.Wait()
}

// store is one keyed store's report.
func store(hits, misses, evictions int64, resident int) memo.Stats {
	return memo.Stats{Counts: memo.Counts{Hits: hits, Misses: misses, Evictions: evictions}, Resident: resident}
}

// TestMergeSnapshots checks the cluster metric fold: counters sum,
// histograms merge bucket-wise with correct moments, hit rate is
// recomputed over the merged counters, readiness requires every worker,
// and differing model hashes are flagged.
func TestMergeSnapshots(t *testing.T) {
	mk := func(uptime float64, hits, misses int64, ready bool, hash string) MetricsSnapshot {
		var s MetricsSnapshot
		s.UptimeSeconds = uptime
		s.Model = ModelStats{Ready: ready, Hash: hash}
		s.Requests = map[string]RouteStats{
			"analyze": {Total: 10, OK: 8, Rejected: 1, ServerErrors: 1},
		}
		s.Latency = map[string]fleet.Histogram{
			"analyze": {BoundsMs: []float64{1, 5}, Counts: []int64{3, 4, 3}, N: 10, MinMs: 0.5, MeanMs: 2, MaxMs: 9},
		}
		s.Queue.Depth = 1
		s.Queue.Capacity = 4
		s.Fleet = fleet.Stats{
			JobsCompleted: 9, JobsFailed: 1,
			CacheHits: hits, CacheMisses: misses, CacheEvictions: 2,
		}
		s.Stores.Prediction = store(hits, misses, 2, 5)
		s.Stores.Result = store(3, 1, 0, 1)
		s.Stores.Program = store(0, 7, 0, 7)
		s.Stores.Trace = store(9, 3, 0, 3)
		return s
	}
	a := mk(100, 6, 4, true, "aaaa")
	b := mk(50, 2, 8, true, "aaaa")
	m := MergeSnapshots([]MetricsSnapshot{a, b})

	if m.UptimeSeconds != 50 {
		t.Errorf("uptime = %v, want min 50", m.UptimeSeconds)
	}
	if rs := m.Requests["analyze"]; rs.Total != 20 || rs.OK != 16 || rs.Rejected != 2 || rs.ServerErrors != 2 {
		t.Errorf("merged route stats: %+v", rs)
	}
	h := m.Latency["analyze"]
	if h.N != 20 || h.Counts[0] != 6 || h.Counts[2] != 6 || h.MinMs != 0.5 || h.MaxMs != 9 || h.MeanMs != 2 {
		t.Errorf("merged histogram: %+v", h)
	}
	if m.Queue.Depth != 2 || m.Queue.Capacity != 8 {
		t.Errorf("merged queue: %+v", m.Queue)
	}
	if m.Fleet.JobsCompleted != 18 || m.Fleet.CacheHits != 8 || m.Fleet.CacheMisses != 12 || m.Fleet.CacheEvictions != 4 {
		t.Errorf("merged fleet: %+v", m.Fleet)
	}
	if m.Fleet.CacheHitRate != 0.4 {
		t.Errorf("merged hit rate = %v, want 0.4 (8/20)", m.Fleet.CacheHitRate)
	}
	if !m.Model.Ready || m.Model.Hash != "aaaa" {
		t.Errorf("merged model: %+v", m.Model)
	}
	wantStores := a.Stores
	wantStores.Prediction = store(8, 12, 4, 10)
	wantStores.Result = store(6, 2, 0, 2)
	wantStores.Program = store(0, 14, 0, 14)
	wantStores.Trace = store(18, 6, 0, 6)
	if m.Stores != wantStores {
		t.Errorf("merged stores: %+v, want %+v", m.Stores, wantStores)
	}

	// One unready worker makes the cluster unready; skewed hashes flag.
	c := mk(75, 0, 0, false, "bbbb")
	m = MergeSnapshots([]MetricsSnapshot{a, c})
	if m.Model.Ready || m.Model.Hash != "mixed" {
		t.Errorf("skewed merge model: %+v", m.Model)
	}
	if got := MergeSnapshots(nil); got.Model.Ready || got.Requests == nil {
		t.Errorf("empty merge: %+v", got)
	}
}

// TestMetricsEndpoint drives a few requests and checks the snapshot
// schema: request counts, cache hit rate, latency histograms, queue
// occupancy.
func TestMetricsEndpoint(t *testing.T) {
	s := newTestServer(t, Config{QueueDepth: 3})
	src := click.Get("aggcounter").Src
	for i := 0; i < 2; i++ {
		if rec := postJSON(t, s.Handler(), "/v1/analyze", AnalyzeRequest{Src: src, Name: "m"}); rec.Code != http.StatusOK {
			t.Fatalf("analyze %d: %d", i, rec.Code)
		}
	}
	postJSON(t, s.Handler(), "/v1/lint", LintRequest{NF: "tcpack"})

	req := httptest.NewRequest("GET", "/metrics", nil)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics status %d", rec.Code)
	}
	var snap MetricsSnapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("metrics not JSON: %v\n%s", err, rec.Body.String())
	}
	if snap.Requests["analyze"].Total != 2 || snap.Requests["analyze"].OK != 2 {
		t.Errorf("analyze counts: %+v", snap.Requests["analyze"])
	}
	if snap.Requests["lint"].OK != 1 {
		t.Errorf("lint counts: %+v", snap.Requests["lint"])
	}
	if snap.Queue.Capacity != 3 || snap.Queue.Depth != 0 {
		t.Errorf("queue: %+v", snap.Queue)
	}
	if h := snap.Latency["analyze"]; h.N != 2 || len(h.Counts) != len(h.BoundsMs)+1 {
		t.Errorf("analyze latency histogram: %+v", h)
	}
	// Identical source twice: second request's prediction is a hit.
	if snap.Fleet.CacheHits != 1 || snap.Fleet.CacheHitRate <= 0 {
		t.Errorf("fleet cache: hits=%d rate=%v", snap.Fleet.CacheHits, snap.Fleet.CacheHitRate)
	}
	if snap.Fleet.JobsCompleted != 2 || snap.Fleet.Analyses.N != 2 {
		t.Errorf("fleet jobs: %+v", snap.Fleet)
	}
	// Every store on one schema. The second request's prediction hit took
	// it to the result store, where it missed and was kept; the program
	// and trace stores are the process's, so other tests' lookups are in
	// them too.
	if want := store(1, 1, 0, 1); snap.Stores.Prediction != want {
		t.Errorf("prediction store: %+v, want %+v", snap.Stores.Prediction, want)
	}
	if want := store(0, 1, 0, 1); snap.Stores.Result != want {
		t.Errorf("result store: %+v, want %+v", snap.Stores.Result, want)
	}
	if snap.Stores.Program.Resident < 1 || snap.Stores.Trace.Hits+snap.Stores.Trace.Misses < 2 {
		t.Errorf("process stores: program %+v, trace %+v", snap.Stores.Program, snap.Stores.Trace)
	}
	for _, key := range []string{`"stores":{"prediction":{"hits":1,"misses":1,"evictions":0,"resident":1}`, `"result":{`, `"program":{`, `"trace":{`} {
		if !strings.Contains(rec.Body.String(), key) {
			t.Errorf("/metrics lacks %s", key)
		}
	}
}

// TestGracefulShutdownDrains starts an analysis, begins shutdown, and
// checks: shutdown waits for the in-flight request, new requests get
// 503, and the drained request still completes successfully.
func TestGracefulShutdownDrains(t *testing.T) {
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 2,
		JobHook: blockingHook(started, release)})

	firstDone := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		firstDone <- postJSON(t, s.Handler(), "/v1/analyze", AnalyzeRequest{NF: "tcpack"})
	}()
	<-started

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownDone <- s.Shutdown(ctx)
	}()
	select {
	case err := <-shutdownDone:
		t.Fatalf("shutdown returned before drain: %v", err)
	case <-time.After(50 * time.Millisecond):
	}

	rec := postJSON(t, s.Handler(), "/v1/analyze", AnalyzeRequest{NF: "aggcounter"})
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("during drain: status %d, want 503", rec.Code)
	}

	close(release)
	if rec := <-firstDone; rec.Code != http.StatusOK {
		t.Fatalf("drained request failed: %d\n%s", rec.Code, rec.Body.String())
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestConcurrentRequests hammers the server with parallel analyze and
// lint requests, and reads /metrics while they run — the -race run for
// the whole serving stack.
func TestConcurrentRequests(t *testing.T) {
	s := newTestServer(t, Config{Workers: 4, QueueDepth: 32})
	var wg sync.WaitGroup
	names := []string{"tcpack", "aggcounter", "udpipencap", "forcetcp"}
	errs := make(chan string, 64)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if rec := getPath(t, s.Handler(), "/metrics"); rec.Code != http.StatusOK {
				errs <- fmt.Sprintf("metrics: %d", rec.Code)
			}
		}()
	}
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := names[i%len(names)]
			if i%4 == 3 {
				if rec := postJSON(t, s.Handler(), "/v1/lint", LintRequest{NF: name}); rec.Code != http.StatusOK {
					errs <- fmt.Sprintf("lint %s: %d", name, rec.Code)
				}
				return
			}
			rec := postJSON(t, s.Handler(), "/v1/analyze", AnalyzeRequest{NF: name})
			if rec.Code != http.StatusOK {
				errs <- fmt.Sprintf("analyze %s: %d", name, rec.Code)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	// Analyze requests cycle names[i%4] for i%4 in {0,1,2}: 12 jobs over
	// 3 distinct modules, so exactly 3 predictions are computed.
	if fs := s.fl.Stats(); fs.JobsCompleted != 12 || fs.CacheMisses != 3 {
		t.Errorf("fleet stats after hammer: %+v", fs)
	}
	var snap MetricsSnapshot
	if err := json.Unmarshal(getPath(t, s.Handler(), "/metrics").Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if n, d := snap.Latency["analyze"].N, snap.Stages["decode"].N; n != 12 || d != 12 {
		t.Errorf("after hammer: %d analyze latencies, %d decode stages; want 12 each", n, d)
	}
}

func getPath(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("GET", path, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func metricsSnap(t *testing.T, h http.Handler) MetricsSnapshot {
	t.Helper()
	rec := getPath(t, h, "/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics status %d", rec.Code)
	}
	var snap MetricsSnapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("metrics not JSON: %v\n%s", err, rec.Body.String())
	}
	return snap
}

// TestTrainingGateThenReady builds the server with a Train function and
// checks the startup contract: the port-facing handlers answer
// immediately (healthz 503 "training", analyze 503 with Retry-After,
// metrics model.ready=false) while training runs, and everything flips
// to serving once the model installs.
func TestTrainingGateThenReady(t *testing.T) {
	tool := quickTool(t)
	release := make(chan struct{})
	s, err := New(Config{
		Workers: 2,
		Train: func(ctx context.Context) (*core.Clara, ModelInfo, error) {
			select {
			case <-release:
				return tool, ModelInfo{Hash: "feedface", TrainSeconds: 1.5}, nil
			case <-ctx.Done():
				return nil, ModelInfo{}, ctx.Err()
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Start(context.Background())

	if rec := getPath(t, s.Handler(), "/healthz"); rec.Code != http.StatusServiceUnavailable ||
		!strings.Contains(rec.Body.String(), "training") {
		t.Fatalf("healthz during training: %d %s", rec.Code, rec.Body.String())
	}
	rec := postJSON(t, s.Handler(), "/v1/analyze", AnalyzeRequest{NF: "tcpack"})
	if rec.Code != http.StatusServiceUnavailable || rec.Header().Get("Retry-After") == "" {
		t.Fatalf("analyze during training: %d (Retry-After %q)", rec.Code, rec.Header().Get("Retry-After"))
	}
	if rec := postJSON(t, s.Handler(), "/v1/lint", LintRequest{NF: "tcpack"}); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("lint during training: %d", rec.Code)
	}
	if snap := metricsSnap(t, s.Handler()); snap.Model.Ready || snap.Model.Hash != "" {
		t.Fatalf("model stats during training: %+v", snap.Model)
	}
	// Elements is static metadata; it must not be gated on the model.
	if rec := getPath(t, s.Handler(), "/v1/elements"); rec.Code != http.StatusOK {
		t.Fatalf("elements during training: %d", rec.Code)
	}

	close(release)
	if err := s.Ready(context.Background()); err != nil {
		t.Fatalf("Ready: %v", err)
	}
	if rec := getPath(t, s.Handler(), "/healthz"); rec.Code != http.StatusOK ||
		!strings.Contains(rec.Body.String(), "feedface") {
		t.Fatalf("healthz after training: %d %s", rec.Code, rec.Body.String())
	}
	if rec := postJSON(t, s.Handler(), "/v1/analyze", AnalyzeRequest{NF: "tcpack"}); rec.Code != http.StatusOK {
		t.Fatalf("analyze after training: %d %s", rec.Code, rec.Body.String())
	}
	snap := metricsSnap(t, s.Handler())
	if !snap.Model.Ready || snap.Model.Hash != "feedface" ||
		snap.Model.TrainSeconds != 1.5 || snap.Model.WarmStart {
		t.Fatalf("model stats after training: %+v", snap.Model)
	}
}

// TestWarmStartFromBundle is the end-to-end warm-start path: persist
// the trained tool as a model bundle, reload it, and build a server
// around the reloaded tool. The server must be ready in well under a
// second (no training) and answer analyses immediately, with the
// bundle's content hash surfaced in /metrics and /healthz.
func TestWarmStartFromBundle(t *testing.T) {
	tool := quickTool(t)
	b, err := core.NewBundle(tool, core.BundleMeta{Quick: true, Seed: 7, TrainSeconds: 12.5})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.json")
	if err := core.SaveBundle(path, b); err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	loaded, err := core.LoadBundle(path)
	if err != nil {
		t.Fatal(err)
	}
	warmTool, err := loaded.Tool()
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{
		Tool:    warmTool,
		Workers: 2,
		Model:   ModelInfo{Hash: loaded.Hash, WarmStart: true, TrainSeconds: loaded.Meta.TrainSeconds},
	})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("warm start took %s; want < 1s", elapsed)
	}
	if err := s.Ready(context.Background()); err != nil {
		t.Fatalf("Ready: %v", err)
	}
	if rec := getPath(t, s.Handler(), "/healthz"); rec.Code != http.StatusOK ||
		!strings.Contains(rec.Body.String(), loaded.Hash) {
		t.Fatalf("healthz: %d %s", rec.Code, rec.Body.String())
	}
	rec := postJSON(t, s.Handler(), "/v1/analyze", AnalyzeRequest{NF: "tcpack"})
	if rec.Code != http.StatusOK {
		t.Fatalf("analyze on warm-started server: %d %s", rec.Code, rec.Body.String())
	}
	if resp := decodeAnalyze(t, rec); len(resp.Results) != 1 || resp.Results[0].Error != "" {
		t.Fatalf("bad warm analysis: %+v", resp)
	}
	snap := metricsSnap(t, s.Handler())
	if !snap.Model.Ready || !snap.Model.WarmStart || snap.Model.Hash != loaded.Hash ||
		snap.Model.TrainSeconds != 12.5 {
		t.Fatalf("model stats: %+v", snap.Model)
	}
}

// TestTrainingFailureSurfaces: a terminal training error flips healthz
// to "failed" and analysis requests to 500 — the server stays up and
// reports why it cannot serve instead of crashing.
func TestTrainingFailureSurfaces(t *testing.T) {
	s, err := New(Config{
		Workers: 2,
		Train: func(ctx context.Context) (*core.Clara, ModelInfo, error) {
			return nil, ModelInfo{}, fmt.Errorf("corpus synthesis exploded")
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Start(context.Background())
	if err := s.Ready(context.Background()); err == nil ||
		!strings.Contains(err.Error(), "exploded") {
		t.Fatalf("Ready error: %v", err)
	}
	if rec := getPath(t, s.Handler(), "/healthz"); rec.Code != http.StatusServiceUnavailable ||
		!strings.Contains(rec.Body.String(), "failed") {
		t.Fatalf("healthz after failure: %d %s", rec.Code, rec.Body.String())
	}
	if rec := postJSON(t, s.Handler(), "/v1/analyze", AnalyzeRequest{NF: "tcpack"}); rec.Code != http.StatusInternalServerError {
		t.Fatalf("analyze after failure: %d", rec.Code)
	}
	if snap := metricsSnap(t, s.Handler()); snap.Model.Ready || snap.Model.TrainError == "" {
		t.Fatalf("model stats after failure: %+v", snap.Model)
	}
}
