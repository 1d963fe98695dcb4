package server

import (
	"net/http"
	"sync"
	"time"

	"clara/internal/core"
	"clara/internal/fleet"
	"clara/internal/interp"
	"clara/internal/memo"
	"clara/internal/traffic"
)

// statusClientClosed marks requests whose client disconnected before a
// response could be written (nginx's 499 convention).
const statusClientClosed = 499

// RouteStats counts one endpoint's requests by outcome class.
type RouteStats struct {
	Total        int64 `json:"total"`
	OK           int64 `json:"ok"`
	ClientErrors int64 `json:"client_errors"` // 4xx except 429
	ServerErrors int64 `json:"server_errors"` // 5xx
	Rejected     int64 `json:"rejected"`      // 429 backpressure
	Canceled     int64 `json:"canceled"`      // client disconnected
}

// ModelStats is the /metrics rendering of the served model's
// provenance: whether the server has a model at all (false while a
// Train-configured server is still in its startup training run), where
// it came from, and its bundle hash.
type ModelStats struct {
	Ready        bool    `json:"ready"`
	WarmStart    bool    `json:"warm_start"`
	Hash         string  `json:"model_hash,omitempty"`
	TrainSeconds float64 `json:"train_seconds,omitempty"`
	TrainError   string  `json:"train_error,omitempty"`
}

// MetricsSnapshot is the /metrics response schema.
type MetricsSnapshot struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	// Model reports readiness and provenance of the served model.
	Model ModelStats `json:"model"`
	// Requests counts per-endpoint outcomes (analyze, lint, elements).
	Requests map[string]RouteStats `json:"requests"`
	// Queue reports admission occupancy: Depth slots of Capacity held.
	Queue struct {
		Depth    int `json:"depth"`
		Capacity int `json:"capacity"`
	} `json:"queue"`
	// Latency is the per-endpoint request wall-time distribution.
	Latency map[string]fleet.Histogram `json:"latency"`
	// Stages is the stage clock, by stage name: the per-job stages of
	// every analysis job, and the server stages of every analyze request.
	// A job or request is counted in a stage only if it spent time there.
	Stages map[string]fleet.Histogram `json:"stages"`
	// Fleet is the analysis pool's lifetime stats (per-job, not
	// per-request: one batch request contributes many jobs).
	Fleet fleet.Stats `json:"fleet"`
	// Stores reports every keyed store on one schema, so "which store
	// answered" reads off one place: the fleet's §3 predictions and whole
	// results (a result hit is a job that ran no analysis at all; only
	// jobs whose prediction lookup hit consult that store), and the
	// process-wide compiled programs and traffic traces, which servers
	// sharing a process also share and each report in full.
	Stores struct {
		Prediction memo.Stats `json:"prediction"`
		Result     memo.Stats `json:"result"`
		Program    memo.Stats `json:"program"`
		Trace      memo.Stats `json:"trace"`
	} `json:"stores"`
}

// metrics accumulates per-route counters and latency histograms, and
// the stage clock's server stages (its jobs' stages are the fleet's),
// under one mutex that a request takes once.
type metrics struct {
	mu     sync.Mutex
	start  time.Time
	routes map[string]*RouteStats
	lat    map[string]*fleet.Hist
	stages [core.NStages]fleet.Hist
}

func newMetrics() *metrics {
	return &metrics{
		start:  time.Now(),
		routes: make(map[string]*RouteStats),
		lat:    make(map[string]*fleet.Hist),
	}
}

// observe records one request: its outcome and wall time under route,
// and every server stage st spent time in.
func (m *metrics) observe(route string, status int, d time.Duration, st *core.Stages) {
	m.mu.Lock()
	defer m.mu.Unlock()
	rs := m.routes[route]
	if rs == nil {
		rs = &RouteStats{}
		m.routes[route] = rs
		m.lat[route] = &fleet.Hist{}
	}
	rs.Total++
	switch {
	case status == statusClientClosed:
		rs.Canceled++
	case status == http.StatusTooManyRequests:
		rs.Rejected++
	case status >= 500:
		rs.ServerErrors++
	case status >= 400:
		rs.ClientErrors++
	default:
		rs.OK++
	}
	m.lat[route].Observe(d)
	for i, sd := range st {
		if sd > 0 {
			m.stages[i].Observe(sd)
		}
	}
}

func (m *metrics) snapshot(fs fleet.Stats, queueDepth, queueCap int) MetricsSnapshot {
	out := MetricsSnapshot{
		Requests: make(map[string]RouteStats),
		Latency:  make(map[string]fleet.Histogram),
		Stages:   make(map[string]fleet.Histogram, core.NStages),
		Fleet:    fs,
	}
	m.mu.Lock()
	out.UptimeSeconds = time.Since(m.start).Seconds()
	for route, rs := range m.routes {
		out.Requests[route] = *rs
		out.Latency[route] = m.lat[route].Snapshot()
	}
	// Job stages are the fleet's, server stages the requests'.
	for s := core.Stage(0); s < core.NStages; s++ {
		h := fs.Stages[s]
		if s >= core.NJobStages {
			h = m.stages[s].Snapshot()
		}
		out.Stages[s.String()] = h
	}
	m.mu.Unlock()
	out.Queue.Depth = queueDepth
	out.Queue.Capacity = queueCap
	out.Stores.Prediction = fs.Predictions
	out.Stores.Result = fs.Results
	out.Stores.Program = interp.ProgramStoreStats()
	out.Stores.Trace = traffic.TraceStoreStats()
	return out
}

// MergeSnapshots folds per-worker /metrics snapshots into one
// cluster-wide view: route counters sum, and the fleet, its histograms and
// the stores fold by their own Add and Merge; queue depth/capacity add
// across workers, and the model is Ready only when every worker's is.
// Uptime is the minimum across workers — the window for which all
// counters have been accumulating. The cluster coordinator serves this
// from its own /metrics endpoint.
func MergeSnapshots(snaps []MetricsSnapshot) MetricsSnapshot {
	out := MetricsSnapshot{
		Requests: make(map[string]RouteStats),
		Latency:  make(map[string]fleet.Histogram),
		Stages:   make(map[string]fleet.Histogram),
	}
	if len(snaps) == 0 {
		return out
	}
	out.Model.Ready = true
	for i, s := range snaps {
		if i == 0 || s.UptimeSeconds < out.UptimeSeconds {
			out.UptimeSeconds = s.UptimeSeconds
		}
		if !s.Model.Ready {
			out.Model.Ready = false
		}
		out.Model.WarmStart = out.Model.WarmStart || s.Model.WarmStart
		if out.Model.Hash == "" {
			out.Model.Hash = s.Model.Hash
		} else if s.Model.Hash != "" && s.Model.Hash != out.Model.Hash {
			// Workers serving different models is a deploy skew worth
			// surfacing; the merged view can only flag it.
			out.Model.Hash = "mixed"
		}
		out.Model.TrainSeconds += s.Model.TrainSeconds
		if s.Model.TrainError != "" && out.Model.TrainError == "" {
			out.Model.TrainError = s.Model.TrainError
		}
		for route, rs := range s.Requests {
			acc := out.Requests[route]
			acc.Total += rs.Total
			acc.OK += rs.OK
			acc.ClientErrors += rs.ClientErrors
			acc.ServerErrors += rs.ServerErrors
			acc.Rejected += rs.Rejected
			acc.Canceled += rs.Canceled
			out.Requests[route] = acc
		}
		for route, h := range s.Latency {
			out.Latency[route] = out.Latency[route].Merge(h)
		}
		for stage, h := range s.Stages {
			out.Stages[stage] = out.Stages[stage].Merge(h)
		}
		out.Queue.Depth += s.Queue.Depth
		out.Queue.Capacity += s.Queue.Capacity
		out.Fleet.Add(s.Fleet)
		out.Stores.Prediction.Add(s.Stores.Prediction)
		out.Stores.Result.Add(s.Stores.Result)
		out.Stores.Program.Add(s.Stores.Program)
		out.Stores.Trace.Add(s.Stores.Trace)
	}
	return out
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	fl, info, trainErr := s.state()
	var fs fleet.Stats
	if fl != nil {
		fs = fl.Stats()
	}
	snap := s.met.snapshot(fs, len(s.sem), cap(s.sem))
	snap.Model = ModelStats{
		Ready:        fl != nil,
		WarmStart:    info.WarmStart,
		Hash:         info.Hash,
		TrainSeconds: info.TrainSeconds,
	}
	if trainErr != nil {
		snap.Model.TrainError = trainErr.Error()
	}
	WriteJSON(w, http.StatusOK, snap)
}
