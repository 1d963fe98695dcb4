// Package server turns Clara from a one-shot CLI into a long-running
// HTTP analysis service: clients POST NFC source (or library element
// names) and receive the full offloading insights as JSON.
//
// The serving layer adds exactly the robustness a continuously-invoked
// analyzer needs on top of core.Clara + fleet:
//
//   - per-request context: timeouts and client disconnects cancel the
//     underlying analysis (observed inside fleet.RunContext and the
//     core profiling loop), so abandoned requests stop burning workers;
//   - bounded admission: at most Config.QueueDepth requests hold
//     analysis slots at once; requests beyond that are rejected with
//     429 (backpressure) instead of queueing without bound;
//   - panic isolation: a poisoned NF panics its own fleet job, which is
//     converted to a per-job error — the process survives;
//   - graceful shutdown: Shutdown stops admitting work and drains the
//     in-flight requests before returning;
//   - observability: /metrics returns a JSON snapshot (request counts,
//     queue depth, per-endpoint latency histograms, fleet cache/lint
//     stats, model provenance) and /debug/pprof exposes the runtime
//     profiles;
//   - readiness: a server built with a Train function binds its port
//     immediately and answers /healthz with 503 "training" until the
//     model is ready, so orchestrators see liveness during the cold
//     start; a warm-started server (pre-loaded model bundle) is ready
//     before the first request.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"clara/internal/analysis"
	"clara/internal/click"
	"clara/internal/core"
	"clara/internal/fleet"
)

// ModelInfo describes the served model's provenance for /metrics and
// /healthz: where it came from (warm start vs in-process training), its
// bundle content hash, and how long training took.
type ModelInfo struct {
	// Hash is the model bundle's content hash ("" when the tool was
	// trained in process and never bundled).
	Hash string
	// WarmStart is true when the tool was loaded from a persisted
	// bundle instead of trained at startup.
	WarmStart bool
	// TrainSeconds is the training wall time (the original training run
	// for a warm-started bundle, this process's for a cold start).
	TrainSeconds float64
}

// Config sizes a Server.
type Config struct {
	// Tool is the trained analyzer. Exactly one of Tool and Train must
	// be set: with Tool the server is ready immediately (warm start),
	// with Train it trains in the background after Start and answers
	// 503 on the analysis endpoints until training completes.
	Tool *core.Clara
	// Train builds the tool asynchronously at startup. It observes ctx
	// (server shutdown cancels training) and returns the tool plus its
	// provenance.
	Train func(ctx context.Context) (*core.Clara, ModelInfo, error)
	// Model is the provenance of a pre-built Tool; ignored when Train
	// is used (Train returns its own ModelInfo).
	Model ModelInfo
	// Workers bounds the fleet's analysis pool; 0 = GOMAXPROCS.
	Workers int
	// QueueDepth bounds concurrently admitted /v1/analyze requests
	// (lint is static and cheap, so it bypasses admission); requests
	// beyond it get 429. 0 means 4 × the resolved worker count.
	QueueDepth int
	// RequestTimeout caps one request's analysis time (a client-supplied
	// timeout_ms may only shorten it). 0 means 30s.
	RequestTimeout time.Duration

	// JobHook, when set, is applied to every job built from a request —
	// a seam for injecting slow or panicking analyses (used by the
	// server's and the cluster coordinator's failure-mode tests). A hook
	// that changes what a job's Setup does must replace the whole
	// ProfileSetup, dropping the resolver's ID with it: a job that keeps
	// an element's ID is answered from the result store as that element.
	JobHook func(j *fleet.Job)
}

// Server is the HTTP analysis service. Create with New, expose via
// Handler (for tests / custom listeners) or ListenAndServe. A server
// built with Config.Train additionally needs Start (ListenAndServe
// calls it) to kick off background training.
type Server struct {
	cfg   Config
	mux   *http.ServeMux
	sem   chan struct{} // admission slots
	met   *metrics
	drain drainGate

	// Model state, installed once (at New for a pre-built tool, from
	// the training goroutine otherwise). ready is closed after install
	// or terminal training failure; mu guards the fields themselves.
	mu       sync.Mutex
	fl       *fleet.Fleet
	model    ModelInfo
	trainErr error
	ready    chan struct{}
	started  atomic.Bool
}

// New builds a server around a trained tool, or — when Config.Train is
// set — around a tool that will be trained in the background.
func New(cfg Config) (*Server, error) {
	if cfg.Tool == nil && cfg.Train == nil {
		return nil, errors.New("server: need a tool or a train function")
	}
	if cfg.Tool != nil && cfg.Train != nil {
		return nil, errors.New("server: tool and train function are mutually exclusive")
	}
	if cfg.QueueDepth <= 0 {
		w := cfg.Workers
		if w <= 0 {
			w = runtime.GOMAXPROCS(0)
		}
		cfg.QueueDepth = 4 * w
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 30 * time.Second
	}
	s := &Server{
		cfg:   cfg,
		sem:   make(chan struct{}, cfg.QueueDepth),
		met:   newMetrics(),
		ready: make(chan struct{}),
	}
	if cfg.Tool != nil {
		if err := s.install(cfg.Tool, cfg.Model); err != nil {
			return nil, err
		}
	}
	s.drain.idle = make(chan struct{})
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/analyze", s.observed("analyze", s.handleAnalyze))
	mux.HandleFunc("POST /v1/lint", s.observed("lint", s.handleLint))
	mux.HandleFunc("GET /v1/elements", s.observed("elements", s.handleElements))
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	s.mux = mux
	return s, nil
}

// install builds the fleet around a trained tool and marks the server
// ready. Called exactly once: from New (pre-built tool) or from the
// training goroutine.
func (s *Server) install(tool *core.Clara, info ModelInfo) error {
	fl, err := fleet.New(tool, fleet.Config{Workers: s.cfg.Workers})
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.cfg.Tool = tool
	s.fl = fl
	s.model = info
	s.mu.Unlock()
	close(s.ready)
	return nil
}

// Start launches background training when the server was built with a
// Train function; it returns immediately and is idempotent. Shutdown of
// ctx cancels an in-flight training run. ListenAndServe calls Start;
// tests serving via Handler call it themselves.
func (s *Server) Start(ctx context.Context) {
	if s.cfg.Train == nil || !s.started.CompareAndSwap(false, true) {
		return
	}
	go func() {
		tool, info, err := s.cfg.Train(ctx)
		if err == nil {
			err = s.install(tool, info)
			if err == nil {
				return
			}
		}
		s.mu.Lock()
		s.trainErr = err
		s.mu.Unlock()
		close(s.ready)
	}()
}

// Ready blocks until the model is installed or training failed
// terminally; it reports whether the server can analyze.
func (s *Server) Ready(ctx context.Context) error {
	select {
	case <-s.ready:
	case <-ctx.Done():
		return ctx.Err()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.trainErr
}

// state snapshots the model machinery for the handlers: the fleet (nil
// until ready), the provenance, and a terminal training error.
func (s *Server) state() (*fleet.Fleet, ModelInfo, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fl, s.model, s.trainErr
}

// Handler returns the service's HTTP handler (for httptest or custom
// servers).
func (s *Server) Handler() http.Handler { return s.mux }

// Fleet exposes the underlying fleet (its Stats feed /metrics); nil
// until a Train-configured server finishes training.
func (s *Server) Fleet() *fleet.Fleet {
	fl, _, _ := s.state()
	return fl
}

// tool returns the installed tool (nil until training completes).
func (s *Server) tool() *core.Clara {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cfg.Tool
}

// ListenAndServe serves on addr until ctx is canceled, then shuts down
// gracefully, draining in-flight analyses (bounded by a 30s grace
// period).
func (s *Server) ListenAndServe(ctx context.Context, addr string) error {
	s.Start(ctx)
	return ListenAndDrain(ctx, addr, s.mux, s.Shutdown)
}

// Shutdown stops admitting new analysis requests (they get 503) and
// blocks until every in-flight request has drained or ctx expires.
func (s *Server) Shutdown(ctx context.Context) error {
	s.drain.close()
	select {
	case <-s.drain.idle:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Draining reports whether Shutdown has begun: the server answers 503
// on the analysis endpoints and /healthz says "draining". Exposed for
// in-process embedders (tests, benchmarks, the cluster coordinator's
// harness) that hold a *Server rather than probing over HTTP.
func (s *Server) Draining() bool { return s.drain.closing() }

// drainGate tracks in-flight requests so Shutdown can drain them. (A
// bare WaitGroup would race Add against Wait; the mutex-guarded counter
// makes enter-after-close an explicit rejection instead.)
type drainGate struct {
	mu     sync.Mutex
	n      int
	closed bool
	idle   chan struct{} // closed once closed && n == 0
}

func (d *drainGate) enter() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return false
	}
	d.n++
	return true
}

func (d *drainGate) exit() {
	d.mu.Lock()
	d.n--
	if d.closed && d.n == 0 {
		close(d.idle)
	}
	d.mu.Unlock()
}

func (d *drainGate) close() {
	d.mu.Lock()
	if !d.closed {
		d.closed = true
		if d.n == 0 {
			close(d.idle)
		}
	}
	d.mu.Unlock()
}

// AnalyzeResult is one job's JSON outcome, as clients decode it. The
// server writes the same members in the same order, but never encodes
// Insights through this struct (see resultJSON).
type AnalyzeResult struct {
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Error    string `json:"error,omitempty"`
	Panicked bool   `json:"panicked,omitempty"`
	// CacheHit says the §3 prediction came from the fleet's store;
	// ResultHit that the whole analysis did.
	CacheHit  bool           `json:"cache_hit"`
	ResultHit bool           `json:"result_hit,omitempty"`
	ElapsedMs float64        `json:"elapsed_ms"`
	Insights  *core.Insights `json:"insights,omitempty"`
}

type AnalyzeResponse struct {
	Results []AnalyzeResult `json:"results"`
}

// encodeInsights is the one insights encoder. A variable so that a test
// can count its calls: a result hit must make none.
var encodeInsights = func(ins *core.Insights) ([]byte, error) { return json.Marshal(ins) }

// resultJSON renders one job's result object: AnalyzeResult's small
// members through the encoder (so names and error texts are escaped by
// it), then the insights — encoded once per stored analysis, not once per
// reply — spliced in as the last member.
func resultJSON(res *fleet.Result) ([]byte, error) {
	head := AnalyzeResult{
		Name:      res.Name,
		Workload:  res.Workload,
		Panicked:  res.Panicked,
		CacheHit:  res.CacheHit,
		ResultHit: res.ResultHit,
		ElapsedMs: float64(res.Elapsed) / float64(time.Millisecond),
	}
	if res.Err != nil {
		head.Error = res.Err.Error()
	}
	out, err := json.Marshal(head)
	if err != nil {
		return nil, err
	}
	ins, err := res.EncodedInsights(encodeInsights)
	if err != nil || ins == nil {
		return out, err
	}
	out = append(out[:len(out)-1], `,"insights":`...)
	out = append(out, ins...)
	return append(out, '}'), nil
}

// observed runs a handler — which returns the status it answered — and
// records the request under route with its real wall time, whatever the
// outcome: a 504 enters the latency histogram at its timeout, not at zero.
func (s *Server) observed(route string, h func(http.ResponseWriter, *http.Request) int) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		s.met.observe(route, h(w, r), time.Since(start))
	}
}

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) int {
	fl, status := s.gate(w)
	if fl == nil {
		return status
	}
	var req AnalyzeRequest
	if err := DecodeBody(w, r, &req); err != nil {
		return WriteError(w, http.StatusBadRequest, err.Error())
	}
	jobs, err := req.Jobs()
	if err != nil {
		return WriteError(w, http.StatusBadRequest, err.Error())
	}
	if s.cfg.JobHook != nil {
		for i := range jobs {
			s.cfg.JobHook(&jobs[i])
		}
	}

	// Drain first, admission second. A draining server must always
	// answer 503 "shutting down" — checking the semaphore first made a
	// full, draining server tell clients "retry later" (429) against a
	// process that was about to exit, which a retrying proxy (or the
	// cluster coordinator) would obligingly hammer instead of failing
	// over to a live worker.
	if !s.drain.enter() {
		return WriteError(w, http.StatusServiceUnavailable, "server shutting down")
	}
	defer s.drain.exit()

	// Admission: a slot per request, held for its whole analysis. No
	// hidden queue behind it — a full service answers 429 immediately
	// and the client retries against visible backpressure.
	select {
	case s.sem <- struct{}{}:
	default:
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds(fl)))
		return WriteError(w, http.StatusTooManyRequests, "analysis queue full")
	}
	defer func() { <-s.sem }()

	timeout := s.cfg.RequestTimeout
	if req.TimeoutMs > 0 && time.Duration(req.TimeoutMs)*time.Millisecond < timeout {
		timeout = time.Duration(req.TimeoutMs) * time.Millisecond
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	results, runErr := fl.RunContext(ctx, jobs)
	if r.Context().Err() != nil {
		// Client went away: there is nobody to write to. Record the
		// cancellation (the analysis itself stopped inside RunContext).
		return statusClientClosed
	}
	if errors.Is(runErr, context.DeadlineExceeded) {
		return WriteError(w, http.StatusGatewayTimeout, fmt.Sprintf("analysis timed out after %s", timeout))
	}
	if runErr != nil {
		return WriteError(w, http.StatusInternalServerError, runErr.Error())
	}

	out := make([][]byte, len(results))
	failed := 0
	for i := range results {
		if results[i].Err != nil {
			failed++
		}
		var err error
		if out[i], err = resultJSON(&results[i]); err != nil {
			return WriteError(w, http.StatusInternalServerError, err.Error())
		}
	}
	// A batch with failed jobs is still a delivered batch: per-job errors
	// ride in the results and the count in X-Clara-Failed-Jobs. Answering
	// 500 here made every retrying proxy re-run the whole batch — good
	// jobs included — to retry failures that are deterministic analysis
	// faults, not transient server state.
	if failed > 0 {
		w.Header().Set(FailedJobsHeader, strconv.Itoa(failed))
	}
	return WriteResults(w, out)
}

// FailedJobsHeader carries the number of jobs in a 200 batch response
// that failed with per-job errors (absent when all jobs succeeded).
const FailedJobsHeader = "X-Clara-Failed-Jobs"

// retryAfterSeconds estimates when an admission slot is likely to free:
// the current slot occupancy divided by the analysis pool's parallelism
// (each worker retires roughly one queued request at a time), clamped to
// [1, 30] seconds. A deeper queue pushes clients further out instead of
// the old hardcoded "1", which synchronized every rejected client into
// a retry storm one second later.
func (s *Server) retryAfterSeconds(fl *fleet.Fleet) int {
	secs := (len(s.sem) + fl.Workers() - 1) / fl.Workers()
	if secs < 1 {
		secs = 1
	}
	if secs > 30 {
		secs = 30
	}
	return secs
}

type LintResponse struct {
	Name        string                `json:"name"`
	Summary     analysis.Summary      `json:"summary"`
	Diagnostics []analysis.Diagnostic `json:"diagnostics"`
}

func (s *Server) handleLint(w http.ResponseWriter, r *http.Request) int {
	// Lint is static, but its thresholds come from the trained tool's
	// hardware model — it waits for readiness like analyze does.
	if fl, status := s.gate(w); fl == nil {
		return status
	}
	var req LintRequest
	if err := DecodeBody(w, r, &req); err != nil {
		return WriteError(w, http.StatusBadRequest, err.Error())
	}
	name, src, err := req.Source()
	if err != nil {
		return WriteError(w, http.StatusBadRequest, err.Error())
	}
	if !s.drain.enter() {
		return WriteError(w, http.StatusServiceUnavailable, "server shutting down")
	}
	defer s.drain.exit()

	ds, err := analysis.LintSource(name, src, s.tool().LintConfig())
	if err != nil {
		return WriteError(w, http.StatusUnprocessableEntity, err.Error())
	}
	return WriteJSON(w, http.StatusOK, LintResponse{
		Name:        name,
		Summary:     analysis.Summarize(ds),
		Diagnostics: ds,
	})
}

// elementInfo is one row of /v1/elements.
type elementInfo struct {
	Name     string `json:"name"`
	Desc     string `json:"desc"`
	LoC      int    `json:"loc"`
	Stateful bool   `json:"stateful"`
}

func (s *Server) handleElements(w http.ResponseWriter, r *http.Request) int {
	var out []elementInfo
	for _, e := range click.Library() {
		out = append(out, elementInfo{Name: e.Name, Desc: e.Desc, LoC: e.LoC(), Stateful: e.Stateful})
	}
	return WriteJSON(w, http.StatusOK, out)
}

// gate rejects analysis-bearing requests while no model is installed:
// 503 with Retry-After during startup training, 500 once training has
// failed terminally. It returns the fleet when the server is ready, else
// nil and the status it answered.
func (s *Server) gate(w http.ResponseWriter) (*fleet.Fleet, int) {
	fl, _, trainErr := s.state()
	if trainErr != nil {
		return nil, WriteError(w, http.StatusInternalServerError, "model training failed: "+trainErr.Error())
	}
	if fl == nil {
		w.Header().Set("Retry-After", "1")
		return nil, WriteError(w, http.StatusServiceUnavailable, "model training in progress")
	}
	return fl, 0
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.drain.closing() {
		WriteJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	fl, info, trainErr := s.state()
	switch {
	case trainErr != nil:
		WriteJSON(w, http.StatusServiceUnavailable, map[string]string{
			"status": "failed", "error": trainErr.Error(),
		})
	case fl == nil:
		WriteJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "training"})
	default:
		out := map[string]string{"status": "ok"}
		if info.Hash != "" {
			out["model_hash"] = info.Hash
		}
		WriteJSON(w, http.StatusOK, out)
	}
}

func (d *drainGate) closing() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.closed
}
