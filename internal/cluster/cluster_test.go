package cluster

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/iotest"
	"time"

	"clara/internal/click"
	"clara/internal/core"
	"clara/internal/fleet"
	"clara/internal/interp"
	"clara/internal/ir"
	"clara/internal/nicsim"
	"clara/internal/server"
	"clara/internal/synth"
)

// One trained tool shared by every worker in every test: training
// dominates package test time and the models are read-only.
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

// worker is one in-process cluster member: a real server.Server behind
// an httptest listener, with a kill switch that makes the process
// vanish from the network (new requests abort the connection,
// CloseClientConnections severs in-flight ones) without stopping the
// Go process — the sharpest crash we can simulate in-process.
type worker struct {
	srv    *server.Server
	ts     *httptest.Server
	killed atomic.Bool
}

func newWorker(t *testing.T, cfg server.Config) *worker {
	t.Helper()
	cfg.Tool = quickTool(t)
	if cfg.Workers == 0 {
		cfg.Workers = 2
	}
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w := &worker{srv: srv}
	w.ts = httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if w.killed.Load() {
			panic(http.ErrAbortHandler)
		}
		srv.Handler().ServeHTTP(rw, r)
	}))
	t.Cleanup(w.ts.Close)
	return w
}

// kill severs the worker from the network mid-flight.
func (w *worker) kill() {
	w.killed.Store(true)
	w.ts.CloseClientConnections()
}

func (w *worker) revive() { w.killed.Store(false) }

func newCluster(t *testing.T, cfg Config, workers ...*worker) *Coordinator {
	t.Helper()
	for _, w := range workers {
		cfg.Workers = append(cfg.Workers, w.ts.URL)
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
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

func decodeAnalyze(t *testing.T, rec *httptest.ResponseRecorder) server.AnalyzeResponse {
	t.Helper()
	var resp server.AnalyzeResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("bad analyze response (%d): %v\n%s", rec.Code, err, rec.Body.String())
	}
	return resp
}

var batchNames = []string{"tcpack", "udpipencap", "forcetcp", "aggcounter", "timefilter", "anonipaddr"}

// routingKeys are the hashes the coordinator routes the named elements on.
func routingKeys(t *testing.T, names []string) [][sha256.Size]byte {
	t.Helper()
	jobs, err := (&server.AnalyzeRequest{NFs: names}).Jobs()
	if err != nil {
		t.Fatal(err)
	}
	keys := make([][sha256.Size]byte, len(jobs))
	for i, j := range jobs {
		keys[i] = ir.Fingerprint(j.Mod)
	}
	return keys
}

// checkOrdered asserts a response carries exactly the requested jobs,
// in request order, each with insights and no error.
func checkOrdered(t *testing.T, resp server.AnalyzeResponse, names []string) {
	t.Helper()
	if len(resp.Results) != len(names) {
		t.Fatalf("got %d results for %d jobs", len(resp.Results), len(names))
	}
	for i, r := range resp.Results {
		if r.Name != names[i] {
			t.Errorf("result %d = %q, want %q (order lost)", i, r.Name, names[i])
		}
		if r.Error != "" || r.Insights == nil {
			t.Errorf("job %s failed: %q", r.Name, r.Error)
		}
	}
}

// TestClusterRoutingAndCacheLocality is the happy-path e2e: a batch
// fans out over two workers and reassembles in order, and the
// content-hash routing keeps the workers' prediction caches disjoint —
// across two identical batches, each distinct module is predicted
// exactly once cluster-wide and the rerun is served entirely from
// cache.
func TestClusterRoutingAndCacheLocality(t *testing.T) {
	a, b := newWorker(t, server.Config{}), newWorker(t, server.Config{})
	c := newCluster(t, Config{}, a, b)

	rec := postJSON(t, c.Handler(), "/v1/analyze", server.AnalyzeRequest{NFs: batchNames})
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d:\n%s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get(server.FailedJobsHeader); got != "" {
		t.Fatalf("clean batch carried %s=%q", server.FailedJobsHeader, got)
	}
	checkOrdered(t, decodeAnalyze(t, rec), batchNames)

	rec = postJSON(t, c.Handler(), "/v1/analyze", server.AnalyzeRequest{NFs: batchNames})
	resp := decodeAnalyze(t, rec)
	checkOrdered(t, resp, batchNames)
	for _, r := range resp.Results {
		if !r.CacheHit {
			t.Errorf("rerun job %s missed its owner's cache", r.Name)
		}
	}

	// Merged metrics: every job completed, and the number of predictions
	// actually computed (the misses) equals the distinct module count —
	// each module was predicted on exactly one worker.
	req := httptest.NewRequest("GET", "/metrics", nil)
	mrec := httptest.NewRecorder()
	c.Handler().ServeHTTP(mrec, req)
	if mrec.Code != http.StatusOK {
		t.Fatalf("metrics status %d", mrec.Code)
	}
	var snap Snapshot
	if err := json.Unmarshal(mrec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("metrics not JSON: %v", err)
	}
	if snap.Cluster.Live != 2 || len(snap.Cluster.Workers) != 2 {
		t.Errorf("cluster view: %+v", snap.Cluster)
	}
	total := int64(2 * len(batchNames))
	if snap.Merged.Fleet.JobsCompleted != total {
		t.Errorf("merged jobs completed = %d, want %d", snap.Merged.Fleet.JobsCompleted, total)
	}
	computed := snap.Merged.Fleet.CacheMisses
	if computed != int64(len(batchNames)) {
		t.Errorf("predictions computed cluster-wide = %d, want %d (disjoint caches)",
			computed, len(batchNames))
	}
	var routed int64
	for _, w := range snap.Cluster.Workers {
		routed += w.JobsRouted
	}
	if routed != total {
		t.Errorf("jobs routed = %d, want %d", routed, total)
	}
	if !snap.Merged.Model.Ready {
		t.Errorf("merged model not ready: %+v", snap.Merged.Model)
	}
}

// TestClusterSrcRouting: submitted source routes by the same content
// hash the workers cache on, so resubmission hits.
func TestClusterSrcRouting(t *testing.T) {
	a, b := newWorker(t, server.Config{}), newWorker(t, server.Config{})
	c := newCluster(t, Config{}, a, b)
	src := click.Get("tcpack").Src

	rec := postJSON(t, c.Handler(), "/v1/analyze", server.AnalyzeRequest{Src: src, Name: "mine"})
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d:\n%s", rec.Code, rec.Body.String())
	}
	if resp := decodeAnalyze(t, rec); resp.Results[0].Error != "" || resp.Results[0].Name != "mine" {
		t.Fatalf("src job: %+v", resp.Results[0])
	}
	rec = postJSON(t, c.Handler(), "/v1/analyze", server.AnalyzeRequest{Src: src, Name: "mine"})
	if resp := decodeAnalyze(t, rec); !resp.Results[0].CacheHit {
		t.Error("resubmitted source missed the owner's cache")
	}
}

// blockingSetup is a JobHook whose Setup announces each started job and
// blocks until release closes.
func blockingSetup(started chan<- struct{}, release <-chan struct{}) func(*fleet.Job) {
	return func(j *fleet.Job) {
		j.PS = core.ProfileSetup{Setup: func(*interp.Machine) error {
			started <- struct{}{}
			<-release
			return nil
		}}
	}
}

// TestClusterWorkerKillMidBatch is the failure e2e the cluster exists
// for: a worker is severed while its sub-batch is in flight. The
// coordinator must mark it dead, re-route exactly that sub-batch to
// the surviving owner (exactly one retry), and still deliver the full
// batch — every job present once, in request order, with insights.
func TestClusterWorkerKillMidBatch(t *testing.T) {
	startedA := make(chan struct{}, 4*len(batchNames))
	startedB := make(chan struct{}, 4*len(batchNames))
	releaseA, releaseB := make(chan struct{}), make(chan struct{})
	a := newWorker(t, server.Config{JobHook: blockingSetup(startedA, releaseA)})
	b := newWorker(t, server.Config{JobHook: blockingSetup(startedB, releaseB)})
	c := newCluster(t, Config{}, a, b)

	// The victim is whichever worker owns the batch's first job, so the
	// test is deterministic no matter how the hash assigns the rest.
	req := server.AnalyzeRequest{NFs: batchNames}
	ownerState, ok := c.owner(routingKeys(t, batchNames)[0], nil)
	if !ok {
		t.Fatal("no owner for first job")
	}
	victim, startedV := a, startedA
	if ownerState.addr == b.ts.URL {
		victim, startedV = b, startedB
	}

	done := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		done <- postJSON(t, c.Handler(), "/v1/analyze", req)
	}()

	<-startedV // the victim's sub-batch is in flight, pinned in Setup
	victim.kill()
	close(releaseA)
	close(releaseB)

	rec := <-done
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d:\n%s", rec.Code, rec.Body.String())
	}
	checkOrdered(t, decodeAnalyze(t, rec), batchNames)
	if got := rec.Header().Get(server.FailedJobsHeader); got != "" {
		t.Errorf("retried batch carried %s=%q", server.FailedJobsHeader, got)
	}
	if got := c.Retries(); got != 1 {
		t.Errorf("retries = %d, want exactly 1", got)
	}
	if c.alive(victim.ts.URL) {
		t.Error("killed worker still marked alive")
	}
	snap := c.Stats()
	if snap.Cluster.Live != 1 {
		t.Errorf("live workers = %d, want 1", snap.Cluster.Live)
	}
}

// TestClusterRejoinRestoresRange: probes demote a dead worker (its keys
// rebalance to the survivors) and promote it on recovery — after which
// every key maps exactly where it did before the death.
func TestClusterRejoinRestoresRange(t *testing.T) {
	a, b := newWorker(t, server.Config{}), newWorker(t, server.Config{})
	c := newCluster(t, Config{ProbeInterval: 10 * time.Millisecond, ProbeBackoffMax: 40 * time.Millisecond}, a, b)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	c.Start(ctx)

	keys := routingKeys(t, batchNames)
	before := make(map[int]string)
	for i, key := range keys {
		w, ok := c.owner(key, nil)
		if !ok {
			t.Fatal("no owner")
		}
		before[i] = w.addr
	}

	b.kill()
	waitFor(t, "probe demotes killed worker", func() bool { return !c.alive(b.ts.URL) })
	for i, key := range keys {
		w, ok := c.owner(key, nil)
		if !ok {
			t.Fatal("no owner with one live worker")
		}
		if w.addr != a.ts.URL {
			t.Fatalf("job %d routed to dead worker", i)
		}
	}
	// The degraded cluster still serves (everything on the survivor).
	rec := postJSON(t, c.Handler(), "/v1/analyze", server.AnalyzeRequest{NFs: batchNames[:2]})
	if rec.Code != http.StatusOK {
		t.Fatalf("degraded status %d:\n%s", rec.Code, rec.Body.String())
	}
	checkOrdered(t, decodeAnalyze(t, rec), batchNames[:2])

	b.revive()
	waitFor(t, "probe revives worker", func() bool { return c.alive(b.ts.URL) })
	for i, key := range keys {
		w, ok := c.owner(key, nil)
		if !ok || w.addr != before[i] {
			t.Errorf("job %d owner after rejoin = %v, want %s (range not restored)", i, w, before[i])
		}
	}
}

// TestClusterNoLiveWorkers: when every worker is unreachable the
// coordinator answers 503, and healthz reports the loss.
func TestClusterNoLiveWorkers(t *testing.T) {
	a := newWorker(t, server.Config{})
	c := newCluster(t, Config{}, a)
	a.kill()

	rec := postJSON(t, c.Handler(), "/v1/analyze", server.AnalyzeRequest{NF: "tcpack"})
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503:\n%s", rec.Code, rec.Body.String())
	}
	hreq := httptest.NewRequest("GET", "/healthz", nil)
	hrec := httptest.NewRecorder()
	c.Handler().ServeHTTP(hrec, hreq)
	if hrec.Code != http.StatusServiceUnavailable {
		t.Errorf("healthz status %d, want 503", hrec.Code)
	}
}

// TestClusterValidation: the coordinator rejects malformed requests
// itself — no worker round trip for input errors.
func TestClusterValidation(t *testing.T) {
	a := newWorker(t, server.Config{})
	c := newCluster(t, Config{}, a)
	for name, body := range map[string]server.AnalyzeRequest{
		"no selector":     {},
		"two selectors":   {NF: "tcpack", Src: "void handle() {}"},
		"unknown element": {NF: "nosuch"},
		"bad source":      {Src: "not nfc ("},
	} {
		if rec := postJSON(t, c.Handler(), "/v1/analyze", body); rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, rec.Code)
		}
	}
}

// TestClusterForwardedEndpoints: lint and elements proxy through to a
// worker.
func TestClusterForwardedEndpoints(t *testing.T) {
	a, b := newWorker(t, server.Config{}), newWorker(t, server.Config{})
	c := newCluster(t, Config{}, a, b)

	rec := postJSON(t, c.Handler(), "/v1/lint", server.LintRequest{NF: "tcpack"})
	if rec.Code != http.StatusOK {
		t.Fatalf("lint via coordinator: %d\n%s", rec.Code, rec.Body.String())
	}
	var lint server.LintResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &lint); err != nil || lint.Name != "tcpack" {
		t.Fatalf("lint response: %v %+v", err, lint)
	}

	ereq := httptest.NewRequest("GET", "/v1/elements", nil)
	erec := httptest.NewRecorder()
	c.Handler().ServeHTTP(erec, ereq)
	if erec.Code != http.StatusOK || !bytes.Contains(erec.Body.Bytes(), []byte("tcpack")) {
		t.Fatalf("elements via coordinator: %d", erec.Code)
	}
}

// TestClusterPerJobErrorsNotRetried: a deterministic per-job failure
// inside a 200 worker response must surface to the client as that
// job's error — not kill the worker, not trigger a retry.
func TestClusterPerJobErrorsNotRetried(t *testing.T) {
	hook := func(j *fleet.Job) {
		if j.Name == "aggcounter" {
			j.PS = core.ProfileSetup{Setup: func(*interp.Machine) error {
				panic("poisoned element")
			}}
		}
	}
	a := newWorker(t, server.Config{JobHook: hook})
	b := newWorker(t, server.Config{JobHook: hook})
	c := newCluster(t, Config{}, a, b)

	names := []string{"tcpack", "aggcounter", "forcetcp"}
	rec := postJSON(t, c.Handler(), "/v1/analyze", server.AnalyzeRequest{NFs: names})
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d:\n%s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get(server.FailedJobsHeader); got != "1" {
		t.Errorf("%s = %q, want \"1\"", server.FailedJobsHeader, got)
	}
	resp := decodeAnalyze(t, rec)
	if len(resp.Results) != 3 {
		t.Fatalf("got %d results", len(resp.Results))
	}
	if resp.Results[1].Error == "" || !resp.Results[1].Panicked {
		t.Errorf("poisoned job not surfaced: %+v", resp.Results[1])
	}
	for _, i := range []int{0, 2} {
		if resp.Results[i].Error != "" || resp.Results[i].Insights == nil {
			t.Errorf("good job %s damaged: %+v", names[i], resp.Results[i])
		}
	}
	if got := c.Retries(); got != 0 {
		t.Errorf("retries = %d, want 0 (per-job errors are final)", got)
	}
	if !c.alive(a.ts.URL) || !c.alive(b.ts.URL) {
		t.Error("per-job error demoted a live worker")
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestOversizeBodyRejectedAlike: a body one byte over the 1 MiB limit is
// refused by the coordinator exactly as a server refuses it — same
// status, same words — and never reaches a worker. (The coordinator used
// to truncate it: analyze answered a confusing "unexpected EOF" and lint
// forwarded the cut-off bytes.)
func TestOversizeBodyRejectedAlike(t *testing.T) {
	a := newWorker(t, server.Config{})
	c := newCluster(t, Config{}, a)
	direct := newWorker(t, server.Config{})

	body := []byte(`{"src":"` + strings.Repeat("a", 1<<20+1-len(`{"src":""}`)) + `"}`)
	if len(body) != 1<<20+1 {
		t.Fatalf("body is %d bytes", len(body))
	}
	post := func(h http.Handler, path string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", path, bytes.NewReader(body)))
		return rec
	}
	for _, path := range []string{"/v1/analyze", "/v1/lint"} {
		want, got := post(direct.srv.Handler(), path), post(c.Handler(), path)
		if want.Code != http.StatusBadRequest || !strings.Contains(want.Body.String(), "request body too large") {
			t.Errorf("%s on a server: %d %s", path, want.Code, want.Body.String())
		}
		if got.Code != want.Code || got.Body.String() != want.Body.String() {
			t.Errorf("%s: coordinator answered %d %s, server %d %s", path, got.Code, got.Body.String(), want.Code, want.Body.String())
		}
	}
	var snap server.MetricsSnapshot
	mrec := httptest.NewRecorder()
	a.srv.Handler().ServeHTTP(mrec, httptest.NewRequest("GET", "/metrics", nil))
	if err := json.Unmarshal(mrec.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if len(snap.Requests) != 0 {
		t.Errorf("the coordinator's worker saw requests: %+v", snap.Requests)
	}
}

// stubCluster is a coordinator over two stub workers that all run handler,
// with the number of requests they saw between them.
func stubCluster(t *testing.T, handler http.HandlerFunc) (c *Coordinator, a, b string, hits *atomic.Int64) {
	t.Helper()
	hits = new(atomic.Int64)
	stub := func() string {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			hits.Add(1)
			handler(w, r)
		}))
		t.Cleanup(ts.Close)
		return ts.URL
	}
	a, b = stub(), stub()
	c, err := New(Config{Workers: []string{a, b}})
	if err != nil {
		t.Fatal(err)
	}
	return c, a, b, hits
}

// checkAllFailFinally posts the six-job batch and holds the reply to a
// final failure of every job: 200, each result carrying its job's name and
// an error containing want, all six counted in X-Clara-Failed-Jobs, no
// retry, both workers still alive, one request per sub-batch.
func checkAllFailFinally(t *testing.T, c *Coordinator, a, b string, hits *atomic.Int64, want string) {
	t.Helper()
	rec := postJSON(t, c.Handler(), "/v1/analyze", server.AnalyzeRequest{NFs: batchNames})
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d:\n%s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get(server.FailedJobsHeader); got != strconv.Itoa(len(batchNames)) {
		t.Errorf("%s = %q, want %d", server.FailedJobsHeader, got, len(batchNames))
	}
	resp := decodeAnalyze(t, rec)
	if len(resp.Results) != len(batchNames) {
		t.Fatalf("%d results for %d jobs", len(resp.Results), len(batchNames))
	}
	for i, r := range resp.Results {
		if r.Name != batchNames[i] || !strings.Contains(r.Error, want) {
			t.Errorf("result %d = %+v, want %s with an error containing %q", i, r, batchNames[i], want)
		}
	}
	if got := c.Retries(); got != 0 {
		t.Errorf("retries = %d, want 0", got)
	}
	if !c.alive(a) || !c.alive(b) {
		t.Error("a final failure demoted a live worker")
	}
	if got := hits.Load(); got > 2 {
		t.Errorf("workers saw %d requests for one batch, want one per sub-batch", got)
	}
}

// TestClusterMalformedReplyIsFinal: a 200 that does not split into one
// well-formed result per job came from a live worker and would be as bad
// from the next one, so it is a per-job error — not a death sentence
// passed from worker to worker. Every way the frame can be wrong counts:
// the coordinator forwards only bytes it has checked. So does a failed-jobs
// count outside the sub-batch: summed into the reply's own header, a -1
// would cancel another worker's real failure.
func TestClusterMalformedReplyIsFinal(t *testing.T) {
	// rightReply answers a sub-batch as a worker would, a result per job
	// — and one more for each extra name.
	rightReply := func(r *http.Request, extra ...string) *httptest.ResponseRecorder {
		var req server.AnalyzeRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			t.Error(err)
		}
		var rs [][]byte
		for _, n := range append(req.NFs, extra...) {
			rs = append(rs, []byte(`{"name":"`+n+`","workload":"mix"}`))
		}
		rec := httptest.NewRecorder()
		server.WriteResults(rec, rs)
		return rec
	}
	for name, c := range map[string]struct {
		handler http.HandlerFunc
		want    string
	}{
		"garbage": {func(w http.ResponseWriter, r *http.Request) {
			w.Write([]byte("{garbage")) //nolint:errcheck
		}, "bad response"},
		"right body, no header": {func(w http.ResponseWriter, r *http.Request) {
			w.Write(rightReply(r).Body.Bytes()) //nolint:errcheck
		}, "bad response: no " + server.ResultLengthsHeader + " header"},
		"header longer than body": {func(w http.ResponseWriter, r *http.Request) {
			rec := rightReply(r)
			w.Header().Set(server.ResultLengthsHeader, rec.Header().Get(server.ResultLengthsHeader)+" 2")
			w.Write(rec.Body.Bytes()) //nolint:errcheck
		}, "bad response: no separator before result"},
		"a result too many": {func(w http.ResponseWriter, r *http.Request) {
			rec := rightReply(r, "uninvited")
			w.Header().Set(server.ResultLengthsHeader, rec.Header().Get(server.ResultLengthsHeader))
			w.Write(rec.Body.Bytes()) //nolint:errcheck
		}, " results for "},
		"garbage inside a result": {func(w http.ResponseWriter, r *http.Request) {
			rec := rightReply(r)
			w.Header().Set(server.ResultLengthsHeader, rec.Header().Get(server.ResultLengthsHeader))
			w.Write(bytes.Replace(rec.Body.Bytes(), []byte(`"mix"`), []byte(`"mi"x`), 1)) //nolint:errcheck
		}, "bad response: result 0 is not a JSON object"},
		"failed-jobs header not a number": {func(w http.ResponseWriter, r *http.Request) {
			rec := rightReply(r)
			w.Header().Set(server.ResultLengthsHeader, rec.Header().Get(server.ResultLengthsHeader))
			w.Header().Set(server.FailedJobsHeader, "some")
			w.Write(rec.Body.Bytes()) //nolint:errcheck
		}, "bad response"},
		"failed-jobs header negative": {func(w http.ResponseWriter, r *http.Request) {
			rec := rightReply(r)
			w.Header().Set(server.ResultLengthsHeader, rec.Header().Get(server.ResultLengthsHeader))
			w.Header().Set(server.FailedJobsHeader, "-1")
			w.Write(rec.Body.Bytes()) //nolint:errcheck
		}, "bad response: " + server.FailedJobsHeader + " -1 for "},
		"failed-jobs header over the sub-batch": {func(w http.ResponseWriter, r *http.Request) {
			rec := rightReply(r)
			w.Header().Set(server.ResultLengthsHeader, rec.Header().Get(server.ResultLengthsHeader))
			w.Header().Set(server.FailedJobsHeader, strconv.Itoa(len(batchNames)+1))
			w.Write(rec.Body.Bytes()) //nolint:errcheck
		}, "bad response: " + server.FailedJobsHeader + " " + strconv.Itoa(len(batchNames)+1) + " for "},
	} {
		t.Run(name, func(t *testing.T) {
			coord, a, b, hits := stubCluster(t, c.handler)
			checkAllFailFinally(t, coord, a, b, hits, c.want)
		})
	}
}

// TestClusterWorkerErrorKeepsItsWords: a worker's non-200 answer reaches
// the client with the worker's reason, not as a bare status — and stays
// final, whatever the body holds.
func TestClusterWorkerErrorKeepsItsWords(t *testing.T) {
	for name, c := range map[string]struct {
		status int
		body   string
		want   string
	}{
		"timeout":        {http.StatusGatewayTimeout, `{"error":"analysis timed out after 2s"}`, "answered 504: analysis timed out after 2s"},
		"bad request":    {http.StatusBadRequest, `{"error":"unknown workload \"x\""}`, `answered 400: unknown workload "x"`},
		"internal error": {http.StatusInternalServerError, `{"error":"boom"}`, "answered 500: boom"},
		"not JSON":       {http.StatusBadGateway, "<html>upstream sad</html>", "answered 502"},
		"no error field": {http.StatusTeapot, `{"status":"short and stout"}`, "answered 418"},
		"endless reason": {http.StatusInternalServerError, `{"error":"` + strings.Repeat("a", 1<<20) + `"}`, "answered 500"},
	} {
		t.Run(name, func(t *testing.T) {
			coord, a, b, hits := stubCluster(t, func(w http.ResponseWriter, r *http.Request) {
				w.WriteHeader(c.status)
				w.Write([]byte(c.body)) //nolint:errcheck
			})
			checkAllFailFinally(t, coord, a, b, hits, c.want)
			rec := postJSON(t, coord.Handler(), "/v1/analyze", server.AnalyzeRequest{NF: "tcpack"})
			if r := decodeAnalyze(t, rec).Results[0]; !strings.HasSuffix(r.Error, c.want) {
				t.Errorf("error %q does not end with %q", r.Error, c.want)
			}
		})
	}
}

// TestClusterOversizeReplyIsNamed: a reply that announces more than the
// cap fails its jobs in those words before a byte of it is read — it used
// to be cut off at the cap and reported as a JSON syntax error.
func TestClusterOversizeReplyIsNamed(t *testing.T) {
	coord, a, b, hits := stubCluster(t, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", strconv.Itoa(65<<20))
		w.WriteHeader(http.StatusOK)
	})
	checkAllFailFinally(t, coord, a, b, hits, ": reply exceeds the 64 MiB limit")
}

// TestClusterMetricsReplyBounded: the coordinator reads a worker's
// /metrics through the reply cap, so a well-formed reply over 1 MiB is
// left out of the merged view rather than decoded whole.
func TestClusterMetricsReplyBounded(t *testing.T) {
	worker := func(total int64, trainErr string) string {
		var snap server.MetricsSnapshot
		snap.Requests = map[string]server.RouteStats{"analyze": {Total: total, OK: total}}
		snap.Model.TrainError = trainErr
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			server.WriteJSON(w, http.StatusOK, snap)
		}))
		t.Cleanup(ts.Close)
		return ts.URL
	}
	c, err := New(Config{Workers: []string{worker(1, ""), worker(2, strings.Repeat("x", 1<<20))}})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	c.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	var snap Snapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("metrics not JSON (%d): %v", rec.Code, err)
	}
	if got := snap.Merged.Requests["analyze"].Total; got != 1 || snap.Merged.Model.TrainError != "" {
		t.Errorf("merged %d analyze requests (train error %d bytes); want 1 — the oversize reply merged",
			got, len(snap.Merged.Model.TrainError))
	}
}

// TestReadReply: the announced length sizes the buffer and nothing more;
// the limit holds for what arrives, announced or not; and a buffer with room
// for the reply is read into, not replaced.
func TestReadReply(t *testing.T) {
	const limit = 16
	for name, c := range map[string]struct {
		announced int64
		body      string
		tooLarge  bool
	}{
		"announced":                {5, "hello", false},
		"unannounced":              {-1, "hello", false},
		"announced short":          {2, "hello", false},
		"at the limit":             {limit, strings.Repeat("a", limit), false},
		"announced over":           {limit + 1, "", true},
		"unannounced over":         {-1, strings.Repeat("a", limit+1), true},
		"announced under, is over": {3, strings.Repeat("a", limit+1), true},
		"empty":                    {0, "", false},
	} {
		got, err := readReply(&http.Response{ContentLength: c.announced, Body: io.NopCloser(iotest.OneByteReader(strings.NewReader(c.body)))}, limit, nil)
		if c.tooLarge {
			if !errors.Is(err, errReplyTooLarge) || got != nil {
				t.Errorf("%s: %d bytes, error %v; want errReplyTooLarge", name, len(got), err)
			}
			continue
		}
		if err != nil || string(got) != c.body {
			t.Errorf("%s: read %q, %v", name, got, err)
		}
	}
	boom := errors.New("boom")
	if _, err := readReply(&http.Response{ContentLength: 9, Body: io.NopCloser(iotest.ErrReader(boom))}, limit, nil); !errors.Is(err, boom) {
		t.Errorf("a failing body reads as %v", err)
	}
	for _, announced := range []int64{-1, 5} {
		buf := append(make([]byte, 0, 8<<10), "stale"...)
		got, err := readReply(&http.Response{ContentLength: announced, Body: io.NopCloser(strings.NewReader("hello"))}, limit, buf)
		if reused := len(got) > 0 && &got[0] == &buf[0]; err != nil || string(got) != "hello" || !reused {
			t.Errorf("announced %d: read %q, %v, into the buffer given: %v", announced, got, err, reused)
		}
	}
}

// TestDefaultClientKeepsConnections: the default client's idle pool holds
// a wave of concurrent sub-batches to one worker, so the next wave dials
// nothing. (http.DefaultTransport keeps two per host: six of these eight
// would dial, and close, a connection each time.)
func TestDefaultClientKeepsConnections(t *testing.T) {
	const wave = 8
	var dialed atomic.Int64
	arrived := make(chan struct{}, wave)
	release := make(chan struct{})
	ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Hold each request until the whole wave is in, so the wave needs
		// eight connections at once.
		arrived <- struct{}{}
		<-release
		server.WriteResults(w, [][]byte{[]byte(`{"name":"tcpack"}`)})
	}))
	ts.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			dialed.Add(1)
		}
	}
	ts.Start()
	t.Cleanup(ts.Close)
	c, err := New(Config{Workers: []string{ts.URL}})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(server.AnalyzeRequest{NF: "tcpack"})
	if err != nil {
		t.Fatal(err)
	}
	runWave := func() {
		var wg sync.WaitGroup
		for i := 0; i < wave; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rec := httptest.NewRecorder()
				c.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/v1/analyze", bytes.NewReader(blob)))
				if rec.Code != http.StatusOK || rec.Header().Get(server.FailedJobsHeader) != "" {
					t.Errorf("status %d: %s", rec.Code, rec.Body.String())
				}
			}()
		}
		for i := 0; i < wave; i++ {
			<-arrived
		}
		for i := 0; i < wave; i++ {
			release <- struct{}{}
		}
		wg.Wait()
	}
	runWave()
	if got := dialed.Load(); got != wave {
		t.Fatalf("the warm-up wave of %d opened %d connections", wave, got)
	}
	runWave()
	if got := dialed.Load() - wave; got != 0 {
		t.Errorf("the second wave opened %d new connections, want 0", got)
	}
}

// TestProbeReusesConnection: a health probe, and a sub-batch a worker
// refuses with 429, leave their connection in the idle pool for the next
// request. Closed unread, each probe used to dial a connection of its own.
func TestProbeReusesConnection(t *testing.T) {
	var dialed atomic.Int64
	ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			server.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
			return
		}
		server.WriteError(w, http.StatusTooManyRequests, "queue full")
	}))
	ts.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			dialed.Add(1)
		}
	}
	ts.Start()
	t.Cleanup(ts.Close)
	c, err := New(Config{Workers: []string{ts.URL}})
	if err != nil {
		t.Fatal(err)
	}
	const probes, refusals = 25, 20
	for i := 0; i < probes; i++ {
		if !c.probe(context.Background(), c.workers[ts.URL]) {
			t.Fatalf("probe %d failed", i)
		}
	}
	if got := dialed.Load(); got != 1 {
		t.Errorf("%d probes opened %d connections, want 1", probes, got)
	}
	for i := 0; i < refusals; i++ {
		rec := postJSON(t, c.Handler(), "/v1/analyze", server.AnalyzeRequest{NF: "tcpack"})
		if r := decodeAnalyze(t, rec).Results[0]; !strings.Contains(r.Error, "at capacity") {
			t.Fatalf("result %+v, want the worker at capacity", r)
		}
	}
	if got := dialed.Load(); got != 1 {
		t.Errorf("%d probes and %d refused sub-batches opened %d connections, want 1", probes, refusals, got)
	}
}

// TestProbeBackoffCap: the dead-worker re-probe cap is never below the
// live-worker interval, so a dead worker is never probed more often than a
// live one; unset or too low, it is 30s unless the interval is longer.
func TestProbeBackoffCap(t *testing.T) {
	const s = time.Second
	for name, c := range map[string]struct{ interval, cap, want time.Duration }{
		"both unset":            {0, 0, 30 * s},
		"unset, short interval": {5 * s, 0, 30 * s},
		"unset, long interval":  {60 * s, 0, 60 * s},
		"below, short interval": {2 * s, 1 * s, 30 * s},
		"below, long interval":  {60 * s, 45 * s, 60 * s},
		"equal":                 {60 * s, 60 * s, 60 * s},
		"above, short interval": {2 * s, 10 * s, 10 * s},
		"above, long interval":  {60 * s, 120 * s, 120 * s},
	} {
		cfg, err := Config{Workers: []string{"w:1"}, ProbeInterval: c.interval, ProbeBackoffMax: c.cap}.norm()
		if err != nil {
			t.Fatal(err)
		}
		if cfg.ProbeBackoffMax != c.want {
			t.Errorf("%s: interval %v, cap %v: normalised cap %v, want %v", name, c.interval, c.cap, cfg.ProbeBackoffMax, c.want)
		}
	}
}

// TestConcurrentRepliesIntact drives the coordinator over two real workers
// from several goroutines at once, with batches of three sizes in flight
// together: the 18-job light batch, a three-NF batch and single-NF
// requests. Every reply must cut at its own announced lengths, and every
// result must carry the job's name and the insights bytes a serial reply
// carried for the same job, so a reply buffer that is reused while a reply
// still reads from it shows up here as a result with another reply's bytes.
func TestConcurrentRepliesIntact(t *testing.T) {
	c := newCluster(t, Config{}, newWorker(t, server.Config{}), newWorker(t, server.Config{}))
	reqs := []server.AnalyzeRequest{
		{NFs: lightElements, Workload: "mix"},
		{NFs: []string{"iplookup", "mazunat", "tcpack"}, Workload: "small"},
		{NF: "dnsproxy", Workload: "large"},
		{NF: "tcpack", Workload: "mix"},
	}
	bodies := make([][]byte, len(reqs))
	for i, req := range reqs {
		var err error
		if bodies[i], err = json.Marshal(req); err != nil {
			t.Fatal(err)
		}
	}
	// reply posts request i and cuts the reply at its announced lengths
	// into each result's name and insights bytes.
	type result struct {
		Name     string          `json:"name"`
		Insights json.RawMessage `json:"insights"`
	}
	reply := func(i int) ([]result, error) {
		rec := httptest.NewRecorder()
		c.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/v1/analyze", bytes.NewReader(bodies[i])))
		if rec.Code != http.StatusOK || rec.Header().Get(server.FailedJobsHeader) != "" {
			return nil, fmt.Errorf("status %d, %s %q:\n%.300s", rec.Code, server.FailedJobsHeader, rec.Header().Get(server.FailedJobsHeader), rec.Body.String())
		}
		cut, err := server.SplitResults(rec.Body.Bytes(), rec.Header().Get(server.ResultLengthsHeader))
		if err != nil {
			return nil, fmt.Errorf("reply does not cut at its own lengths: %v", err)
		}
		out := make([]result, len(cut))
		for k, r := range cut {
			if err := json.Unmarshal(r, &out[k]); err != nil || len(out[k].Insights) == 0 {
				return nil, fmt.Errorf("result %d has no insights (%v):\n%.300s", k, err, r)
			}
		}
		return out, nil
	}

	want := make([][]result, len(reqs))
	for i := range reqs {
		var err error
		if want[i], err = reply(i); err != nil {
			t.Fatalf("serial request %d: %v", i, err)
		}
	}
	const goroutines, rounds = 6, 12
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < rounds; k++ {
				i := (g + k) % len(reqs)
				got, err := reply(i)
				if err != nil {
					t.Errorf("goroutine %d, request %d: %v", g, i, err)
					return
				}
				if len(got) != len(want[i]) {
					t.Errorf("goroutine %d, request %d: %d results, want %d", g, i, len(got), len(want[i]))
					return
				}
				for r := range got {
					if got[r].Name != want[i][r].Name || !bytes.Equal(got[r].Insights, want[i][r].Insights) {
						t.Errorf("goroutine %d, request %d, result %d: %s with %d insights bytes, want %s's %d serial bytes",
							g, i, r, got[r].Name, len(got[r].Insights), want[i][r].Name, len(want[i][r].Insights))
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
