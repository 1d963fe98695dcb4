// Package cluster scales Clara's serving layer horizontally: a
// coordinator fronts N `clara -serve` workers, routing each analysis
// job to a worker chosen by rendezvous hashing over the module's
// content hash (ir.Fingerprint). The same hash keys every worker's
// module store, so the assignment makes the caches disjoint and hot:
// a module always lands on the one worker whose store can already hold
// its prediction and static facts, and the cluster's aggregate cache capacity is the sum
// of the workers' instead of N copies of the same entries.
//
// The coordinator is deliberately thin — it holds no model and runs no
// analysis. It resolves a request with the workers' own resolver
// (server.AnalyzeRequest.Jobs, so both doors reject the same input with
// the same words), splits the batch into per-worker sub-batches, fans
// them out concurrently, and splices the workers' per-job results back
// together in request order: each reply is cut at the result lengths its
// worker announced (server.SplitResults, which checks the envelope and
// validates every result in one pass), and the pieces are forwarded as the
// bytes they arrived in, never decoded or re-encoded. It also
// merges the workers' /metrics into one cluster snapshot. A background
// probe loop health-checks each worker (/healthz, exponential backoff
// while down); a dead worker's hash range rebalances to the live
// workers via rendezvous hashing's minimal-disruption property, its
// in-flight sub-batches are retried exactly once against the new
// owners, and a rejoining worker gets precisely its old range back.
package cluster

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"clara/internal/ir"
	"clara/internal/server"
)

// Config sizes a Coordinator.
type Config struct {
	// Workers lists the worker endpoints ("host:port" or full URLs).
	// The configured string is the worker's routing identity: it feeds
	// the rendezvous hash, so it must stay stable across restarts for a
	// rejoining worker to reclaim its old range.
	Workers []string
	// Client issues worker requests; nil means a default client. Probe
	// and forwarding timeouts are applied per request, so the client
	// itself needs no global timeout.
	Client *http.Client
	// ProbeInterval is the /healthz cadence for live workers and the
	// starting backoff for dead ones; 0 means 2s.
	ProbeInterval time.Duration
	// ProbeBackoffMax caps the dead-worker re-probe backoff (the
	// interval doubles from ProbeInterval up to this); 0, or anything
	// below ProbeInterval, means 30s or ProbeInterval, whichever is longer.
	ProbeBackoffMax time.Duration
	// RequestTimeout caps one forwarded sub-batch request; 0 means 60s.
	RequestTimeout time.Duration
}

// workerIdleConns is how many idle connections the default client keeps
// to each worker: the number of sub-batches that can be in flight to one
// worker without any of them dialing.
const workerIdleConns = 64

func (c Config) norm() (Config, error) {
	if len(c.Workers) == 0 {
		return c, errors.New("cluster: no workers configured")
	}
	seen := make(map[string]bool, len(c.Workers))
	for _, w := range c.Workers {
		if w == "" {
			return c, errors.New("cluster: empty worker address")
		}
		if seen[w] {
			return c, fmt.Errorf("cluster: duplicate worker %q", w)
		}
		seen[w] = true
	}
	if c.Client == nil {
		// http.DefaultTransport keeps two idle connections per host, so a
		// third concurrent sub-batch to one worker would dial, and close,
		// a connection of its own every time.
		tr, ok := http.DefaultTransport.(*http.Transport)
		if ok {
			tr = tr.Clone()
		} else {
			tr = &http.Transport{}
		}
		tr.MaxIdleConnsPerHost = workerIdleConns
		tr.MaxIdleConns = workerIdleConns * len(c.Workers)
		c.Client = &http.Client{Transport: tr}
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 2 * time.Second
	}
	if c.ProbeBackoffMax < c.ProbeInterval {
		// A dead worker is never probed more often than a live one.
		c.ProbeBackoffMax = max(30*time.Second, c.ProbeInterval)
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 60 * time.Second
	}
	return c, nil
}

// workerState is one worker's routing identity plus its liveness as the
// probe loop and the dispatch path last observed it.
type workerState struct {
	addr string // routing identity (as configured)
	base string // request base URL
	// Guarded by Coordinator.mu:
	alive      bool
	deaths     int64
	jobsRouted int64
}

// Coordinator fans analysis requests out over a worker fleet. Create
// with New, start the health probes with Start, and expose via Handler
// or ListenAndServe.
type Coordinator struct {
	cfg Config
	mux *http.ServeMux

	mu      sync.Mutex
	workers map[string]*workerState
	order   []string // configured order, for stable reporting

	retries atomic.Int64 // dead-worker sub-batch re-dispatches
	started atomic.Bool
}

// New builds a coordinator over the configured workers. Workers start
// optimistically alive — the first failed dispatch or probe demotes
// them — so a cluster is routable the instant it comes up.
func New(cfg Config) (*Coordinator, error) {
	cfg, err := cfg.norm()
	if err != nil {
		return nil, err
	}
	c := &Coordinator{
		cfg:     cfg,
		workers: make(map[string]*workerState, len(cfg.Workers)),
	}
	for _, addr := range cfg.Workers {
		base := addr
		if !strings.Contains(base, "://") {
			base = "http://" + base
		}
		c.workers[addr] = &workerState{addr: addr, base: strings.TrimRight(base, "/"), alive: true}
		c.order = append(c.order, addr)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/analyze", c.handleAnalyze)
	mux.HandleFunc("POST /v1/lint", c.handleLint)
	mux.HandleFunc("GET /v1/elements", c.handleElements)
	mux.HandleFunc("GET /metrics", c.handleMetrics)
	mux.HandleFunc("GET /healthz", c.handleHealthz)
	c.mux = mux
	return c, nil
}

// Handler returns the coordinator's HTTP handler.
func (c *Coordinator) Handler() http.Handler { return c.mux }

// Start launches the per-worker health-probe loops; it is idempotent
// and returns immediately. ctx cancellation stops the probes.
func (c *Coordinator) Start(ctx context.Context) {
	if !c.started.CompareAndSwap(false, true) {
		return
	}
	for _, addr := range c.order {
		go c.probeLoop(ctx, c.workers[addr])
	}
}

// ListenAndServe serves on addr until ctx is canceled. The coordinator
// holds no in-flight analysis state of its own, so shutdown just stops
// the listener (workers drain their own requests).
func (c *Coordinator) ListenAndServe(ctx context.Context, addr string) error {
	c.Start(ctx)
	return server.ListenAndDrain(ctx, addr, c.mux, nil)
}

// owner picks the live worker that owns key by rendezvous (highest-
// random-weight) hashing: every (key, worker) pair gets the score
// sha256(key ‖ addr) and the highest live score wins. Losing a worker
// reassigns only the keys it owned (each to its second-highest scorer),
// and a rejoining worker reclaims exactly the keys it used to win —
// no ring state to maintain or repair.
func (c *Coordinator) owner(key [sha256.Size]byte, exclude map[string]bool) (*workerState, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var best *workerState
	var bestScore [sha256.Size]byte
	for _, addr := range c.order {
		w := c.workers[addr]
		if !w.alive || exclude[addr] {
			continue
		}
		score := sha256.Sum256(append(key[:], addr...))
		if best == nil || bytes.Compare(score[:], bestScore[:]) > 0 {
			best, bestScore = w, score
		}
	}
	return best, best != nil
}

// markDead demotes a worker after a failed dispatch or probe. The probe
// loop keeps retrying it on a backoff and flips it back when /healthz
// answers 200 again.
func (c *Coordinator) markDead(w *workerState) {
	c.mu.Lock()
	if w.alive {
		w.alive = false
		w.deaths++
	}
	c.mu.Unlock()
}

// alive reports a worker's current liveness (probe-loop view).
func (c *Coordinator) alive(addr string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.workers[addr]
	return w != nil && w.alive
}

// liveWorkers snapshots the live set in configured order.
func (c *Coordinator) liveWorkers() []*workerState {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []*workerState
	for _, addr := range c.order {
		if w := c.workers[addr]; w.alive {
			out = append(out, w)
		}
	}
	return out
}

// cjob is one routed job: the client's job index, the module's routing
// hash, and the name it is forwarded and reported under.
type cjob struct {
	index int
	key   [sha256.Size]byte
	name  string
}

// batch is one analyze request in flight. Each job ends with exactly one
// of results[i] — its worker's result object, byte for byte — or errs[i],
// a failure of the coordinator's own; indices are disjoint across
// sub-batches, so only workerFailed and replies are shared.
type batch struct {
	req     *server.AnalyzeRequest
	results [][]byte
	errs    []string
	// workerFailed sums the workers' X-Clara-Failed-Jobs: per-job errors
	// that ride inside spliced results the coordinator never opens.
	workerFailed atomic.Int64
	// replies are the pooled buffers the workers' replies were read into.
	// results are sub-slices of them, so they go back to the pool only in
	// release, after the coordinator's own reply is written.
	mu      sync.Mutex
	replies []*[]byte
}

// replyBuffer takes a buffer from the reply pool for one worker reply and
// keeps it with the batch until release.
func (b *batch) replyBuffer() *[]byte {
	p := server.GetReplyBuffer()
	b.mu.Lock()
	b.replies = append(b.replies, p)
	b.mu.Unlock()
	return p
}

// release returns the batch's reply buffers to the pool; nothing may read
// results after it.
func (b *batch) release() {
	for _, p := range b.replies {
		server.PutReplyBuffer(p)
	}
	b.replies = nil
}

const errNoWorkers = "no live workers"

func (c *Coordinator) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	var req server.AnalyzeRequest
	if err := server.DecodeBody(w, r, &req); err != nil {
		server.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	resolved, err := req.Jobs()
	if err != nil {
		server.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	// Route on the content hash the workers' module stores key on, so
	// routing and caching agree on module identity.
	jobs := make([]cjob, len(resolved))
	for i, j := range resolved {
		jobs[i] = cjob{index: i, key: ir.Fingerprint(j.Mod), name: j.Name}
	}
	ctx, cancel := context.WithTimeout(r.Context(), c.cfg.RequestTimeout)
	defer cancel()

	b := &batch{req: &req, results: make([][]byte, len(jobs)), errs: make([]string, len(jobs))}
	// Deferred, so the worker bodies the results point into outlive
	// WriteResults below: it copies them into the reply in one Write.
	defer b.release()
	c.dispatch(ctx, jobs, b, nil)
	if r.Context().Err() != nil {
		return // client went away; nobody to write to
	}
	failed, unrouted := int(b.workerFailed.Load()), 0
	for i, msg := range b.errs {
		if msg == "" {
			continue
		}
		failed++
		if msg == errNoWorkers {
			unrouted++
		}
		if b.results[i], err = json.Marshal(server.AnalyzeResult{Name: jobs[i].name, Error: msg}); err != nil {
			server.WriteError(w, http.StatusInternalServerError, err.Error())
			return
		}
	}
	if unrouted == len(jobs) {
		// Not one job could even be routed: the cluster itself is the
		// failure, and 503 tells clients (and upstream balancers) so.
		server.WriteError(w, http.StatusServiceUnavailable, errNoWorkers)
		return
	}
	if failed > 0 {
		w.Header().Set(server.FailedJobsHeader, strconv.Itoa(failed))
	}
	// server.SplitResults held every worker result to one well-formed JSON
	// object when it cut the replies; the bytes leave as they came, not
	// through an encoder that would scan them a second time.
	server.WriteResults(w, b.results)
}

// dispatch groups jobs by owner and runs every sub-batch concurrently,
// writing each job's outcome into the batch at job.index. exclude carries
// the workers this dispatch already saw die: a sub-batch whose worker
// dies mid-flight is re-dispatched exactly once against the remaining
// live set (minus everyone in exclude), and a second death fails the jobs
// instead of cascading retries.
func (c *Coordinator) dispatch(ctx context.Context, jobs []cjob, b *batch, exclude map[string]bool) {
	groups := make(map[*workerState][]cjob)
	for _, j := range jobs {
		w, ok := c.owner(j.key, exclude)
		if !ok {
			b.errs[j.index] = errNoWorkers
			continue
		}
		groups[w] = append(groups[w], j)
	}
	var wg sync.WaitGroup
	for w, group := range groups {
		wg.Add(1)
		go func(w *workerState, group []cjob) {
			defer wg.Done()
			c.mu.Lock()
			w.jobsRouted += int64(len(group))
			c.mu.Unlock()
			if dead := c.runSubBatch(ctx, w, group, b); dead {
				c.markDead(w)
				if ctx.Err() != nil || exclude[w.addr] {
					// Canceled request, or this worker already got its
					// one retry: the jobs keep their failure results.
					return
				}
				c.retries.Add(1)
				next := map[string]bool{w.addr: true}
				for addr := range exclude {
					next[addr] = true
				}
				c.dispatch(ctx, group, b, next)
			}
		}(w, group)
	}
	wg.Wait()
}

// runSubBatch forwards one worker's share of a batch and records its
// outcome. It reports dead=true only for failures that mean the worker
// itself is gone — transport errors and 503 (draining or unready) —
// which the caller answers by re-routing. Everything else is final:
// 429 is backpressure (the worker is alive, just full; retrying
// elsewhere would stampede the next worker), per-job errors inside a 200
// are deterministic analysis faults that would fail identically on any
// worker, and a 200 that is oversize or does not split into its announced
// results arrived from a live worker and would be no better from the next.
func (c *Coordinator) runSubBatch(ctx context.Context, w *workerState, group []cjob, b *batch) (dead bool) {
	fail := func(format string, args ...any) {
		msg := fmt.Sprintf(format, args...)
		for _, j := range group {
			b.errs[j.index] = msg
		}
	}
	sub := server.AnalyzeRequest{Src: b.req.Src, Name: b.req.Name, Workload: b.req.Workload, TimeoutMs: b.req.TimeoutMs}
	if sub.Src == "" {
		for _, j := range group {
			sub.NFs = append(sub.NFs, j.name)
		}
	}
	blob, err := json.Marshal(sub)
	if err != nil {
		fail("encoding sub-batch: %v", err)
		return false
	}
	var body []byte
	var reason string
	resp, err := c.call(ctx, "POST", w, "/v1/analyze", blob)
	if err == nil {
		if resp.StatusCode == http.StatusOK {
			reply := b.replyBuffer()
			*reply, err = readReply(resp, maxReplyBytes, *reply)
			body = *reply
		} else {
			reason = errorReason(resp.Body)
		}
		resp.Body.Close()
	}
	switch {
	case errors.Is(err, errReplyTooLarge):
		fail("worker %s: %v", w.addr, err)
		return false
	case err != nil && ctx.Err() != nil:
		// The client hung up or timed out; that says nothing about the
		// worker's health.
		fail("request canceled: %v", ctx.Err())
		return false
	case err != nil:
		fail("worker %s unreachable: %v", w.addr, err)
		return true
	case resp.StatusCode == http.StatusServiceUnavailable:
		fail("worker %s unavailable", w.addr)
		return true
	case resp.StatusCode == http.StatusTooManyRequests:
		fail("worker %s at capacity: retry later", w.addr)
		return false
	case resp.StatusCode != http.StatusOK:
		fail("worker %s answered %d%s", w.addr, resp.StatusCode, reason)
		return false
	}
	failed := 0
	if h := resp.Header.Get(server.FailedJobsHeader); h != "" {
		// A count is summed into the reply's own header: one outside the
		// sub-batch would cancel another worker's failures or invent some.
		if failed, err = strconv.Atoi(h); err == nil && (failed < 0 || failed > len(group)) {
			err = fmt.Errorf("%s %d for %d jobs", server.FailedJobsHeader, failed, len(group))
		}
	}
	lengths := resp.Header.Get(server.ResultLengthsHeader)
	if err == nil && lengths == "" {
		// Every sub-batch has a job, so every reply has a length to announce.
		err = errors.New("no " + server.ResultLengthsHeader + " header")
	}
	var results [][]byte
	if err == nil {
		results, err = server.SplitResults(body, lengths)
	}
	if err == nil && len(results) != len(group) {
		err = fmt.Errorf("%d results for %d jobs", len(results), len(group))
	}
	if err != nil {
		fail("worker %s: bad response: %v", w.addr, err)
		return false
	}
	for i, j := range group {
		b.results[j.index], b.errs[j.index] = results[i], ""
	}
	b.workerFailed.Add(int64(failed))
	return false
}

// maxReplyBytes bounds one worker reply held in memory.
const maxReplyBytes = 64 << 20

var errReplyTooLarge = fmt.Errorf("reply exceeds the %d MiB limit", maxReplyBytes>>20)

// maxMetricsBytes bounds one worker's /metrics reply, a few KiB in
// practice; a worker whose reply exceeds it is left out of the merged view.
const maxMetricsBytes = 1 << 20

// readReply reads a reply body whole into buf, reusing its capacity — the
// analyze path passes a buffer from the server's reply pool, so a worker
// reply lands in memory an earlier reply paid for. Content-Length only
// sizes the buffer — a reply longer than buf costs one allocation and no
// regrowth; the limit holds for what is announced and, announced or not,
// for what arrives.
func readReply(resp *http.Response, limit int64, buf []byte) ([]byte, error) {
	if resp.ContentLength > limit {
		return nil, errReplyTooLarge
	}
	hint := resp.ContentLength
	if hint < 0 {
		hint = 4 << 10
	}
	// One byte spare, so the Read that reports EOF finds room to try.
	buf = slices.Grow(buf[:0], int(hint)+1)
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := resp.Body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if int64(len(buf)) > limit {
			return nil, errReplyTooLarge
		}
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// errorReason is the ": <message>" a worker's {"error": …} reply adds to
// the status it came with, or "" when the body is anything else. Best
// effort, and bounded: an error reply is a sentence, not a document.
func errorReason(body io.Reader) string {
	var reply struct {
		Error string `json:"error"`
	}
	lr := io.LimitReader(body, drainLimit)
	err := json.NewDecoder(lr).Decode(&reply)
	drain(lr)
	if err != nil || reply.Error == "" {
		return ""
	}
	return ": " + reply.Error
}

// drainLimit bounds what is read of a reply the coordinator has no use for.
const drainLimit = 4 << 10

// drain reads what is left of body, up to drainLimit bytes, before its
// Close: the transport puts a connection back in its idle pool only when
// the body on it was read to the end, so closing a /healthz or error reply
// unread would cost the next request a new connection. A longer body is
// not worth reading to save a dial.
func drain(body io.Reader) {
	io.Copy(io.Discard, io.LimitReader(body, drainLimit)) //nolint:errcheck // best effort: the connection is closed instead
}

// call issues one request to a worker; a nil body sends none. The caller
// closes the response body.
func (c *Coordinator) call(ctx context.Context, method string, w *workerState, path string, body []byte) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, w.base+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	return c.cfg.Client.Do(req)
}

// handleLint and handleElements forward to the first live worker: lint
// has no cache to keep hot and elements is static, so any worker answers
// alike. The lint body goes through the shared decoder first, so an
// oversize or malformed one is refused here, in the workers' words,
// instead of reaching a worker truncated.
func (c *Coordinator) handleLint(w http.ResponseWriter, r *http.Request) {
	var req server.LintRequest
	if err := server.DecodeBody(w, r, &req); err != nil {
		server.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	body, err := json.Marshal(req)
	if err != nil {
		server.WriteError(w, http.StatusInternalServerError, err.Error())
		return
	}
	c.forward(w, r, "/v1/lint", body)
}

func (c *Coordinator) handleElements(w http.ResponseWriter, r *http.Request) {
	c.forward(w, r, "/v1/elements", nil)
}

// forward proxies one request to the first live worker, relaying status
// and body. A transport failure demotes the worker and answers 502 (these
// paths carry no jobs, so there is nothing to re-route).
func (c *Coordinator) forward(w http.ResponseWriter, r *http.Request, path string, body []byte) {
	live := c.liveWorkers()
	if len(live) == 0 {
		server.WriteError(w, http.StatusServiceUnavailable, errNoWorkers)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), c.cfg.RequestTimeout)
	defer cancel()
	resp, err := c.call(ctx, r.Method, live[0], path, body)
	if err != nil {
		if ctx.Err() == nil {
			c.markDead(live[0])
		}
		server.WriteError(w, http.StatusBadGateway, fmt.Sprintf("worker %s unreachable: %v", live[0].addr, err))
		return
	}
	defer resp.Body.Close()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body) //nolint:errcheck // client may be gone
}

// WorkerInfo is one worker's row in the cluster snapshot.
type WorkerInfo struct {
	Addr string `json:"addr"`
	// Alive is the probe loop's current view.
	Alive bool `json:"alive"`
	// Deaths counts alive→dead transitions (probe failures and failed
	// dispatches both demote).
	Deaths int64 `json:"deaths"`
	// JobsRouted counts jobs this coordinator sent to the worker,
	// including jobs whose sub-batch later failed.
	JobsRouted int64 `json:"jobs_routed"`
}

// Snapshot is the coordinator's /metrics schema: the cluster's own
// routing state plus the workers' merged serving metrics.
type Snapshot struct {
	Cluster struct {
		Workers []WorkerInfo `json:"workers"`
		Live    int          `json:"live_workers"`
		// Retries counts dead-worker sub-batch re-dispatches.
		Retries int64 `json:"retries"`
	} `json:"cluster"`
	// Merged folds every reachable worker's /metrics into one view
	// (see server.MergeSnapshots for the fold semantics).
	Merged server.MetricsSnapshot `json:"merged"`
}

// Stats returns the coordinator's routing-state snapshot (without
// worker metrics — those need HTTP round trips; see handleMetrics).
func (c *Coordinator) Stats() Snapshot {
	var snap Snapshot
	c.mu.Lock()
	for _, addr := range c.order {
		w := c.workers[addr]
		snap.Cluster.Workers = append(snap.Cluster.Workers, WorkerInfo{
			Addr: w.addr, Alive: w.alive, Deaths: w.deaths, JobsRouted: w.jobsRouted,
		})
		if w.alive {
			snap.Cluster.Live++
		}
	}
	c.mu.Unlock()
	snap.Cluster.Retries = c.retries.Load()
	return snap
}

func (c *Coordinator) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := c.Stats()
	live := c.liveWorkers()
	snaps := make([]server.MetricsSnapshot, len(live))
	oks := make([]bool, len(live))
	var wg sync.WaitGroup
	for i, ws := range live {
		wg.Add(1)
		go func(i int, ws *workerState) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(r.Context(), 5*time.Second)
			defer cancel()
			resp, err := c.call(ctx, "GET", ws, "/metrics", nil)
			if err != nil {
				return
			}
			defer resp.Body.Close()
			defer drain(resp.Body)
			if resp.StatusCode != http.StatusOK {
				return
			}
			body, err := readReply(resp, maxMetricsBytes, nil)
			oks[i] = err == nil && json.Unmarshal(body, &snaps[i]) == nil
		}(i, ws)
	}
	wg.Wait()
	var reachable []server.MetricsSnapshot
	for i, ok := range oks {
		if ok {
			reachable = append(reachable, snaps[i])
		}
	}
	snap.Merged = server.MergeSnapshots(reachable)
	server.WriteJSON(w, http.StatusOK, snap)
}

// handleHealthz reports the coordinator routable (200) while at least
// one worker is live; the body carries the live count so orchestrators
// can alert on partial degradation before total loss.
func (c *Coordinator) handleHealthz(w http.ResponseWriter, r *http.Request) {
	snap := c.Stats()
	status := "ok"
	code := http.StatusOK
	if snap.Cluster.Live == 0 {
		status, code = "no live workers", http.StatusServiceUnavailable
	} else if snap.Cluster.Live < len(snap.Cluster.Workers) {
		status = "degraded"
	}
	server.WriteJSON(w, code, map[string]any{
		"status":  status,
		"live":    snap.Cluster.Live,
		"workers": len(snap.Cluster.Workers),
	})
}

// Retries reports lifetime dead-worker re-dispatches (test hook and
// Stats feed).
func (c *Coordinator) Retries() int64 { return c.retries.Load() }
