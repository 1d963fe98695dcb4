package server

import (
	"net/http"
	"sync"
	"time"

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

// HistogramJSON is a latency histogram in milliseconds — the /metrics
// rendering of a fleet.Histogram.
type HistogramJSON struct {
	// BoundsMs[i] is the inclusive upper bound of Counts[i];
	// Counts[len(BoundsMs)] is the overflow bucket.
	BoundsMs []float64 `json:"bounds_ms"`
	Counts   []int64   `json:"counts"`
	N        int64     `json:"n"`
	MinMs    float64   `json:"min_ms"`
	MeanMs   float64   `json:"mean_ms"`
	MaxMs    float64   `json:"max_ms"`
}

func histJSON(h fleet.Histogram) HistogramJSON {
	out := HistogramJSON{
		Counts: h.Counts,
		N:      h.N,
		MinMs:  ms(h.Min),
		MeanMs: ms(h.Mean()),
		MaxMs:  ms(h.Max),
	}
	for _, b := range h.Bounds {
		out.BoundsMs = append(out.BoundsMs, ms(b))
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// FleetStats is the /metrics rendering of fleet.Stats.
type FleetStats struct {
	JobsCompleted  int64   `json:"jobs_completed"`
	JobsFailed     int64   `json:"jobs_failed"`
	JobsCanceled   int64   `json:"jobs_canceled"`
	JobsPanicked   int64   `json:"jobs_panicked"`
	CacheHits      int64   `json:"cache_hits"`
	CacheMisses    int64   `json:"cache_misses"`
	CacheHitRate   float64 `json:"cache_hit_rate"`
	CacheEvictions int64   `json:"cache_evictions"`
	// Prewarmed is always 0, like fleet.Stats.Prewarmed; the benchmark
	// harness reads it.
	Prewarmed    int64 `json:"prewarmed"`
	LintErrors   int64 `json:"lint_errors"`
	LintWarnings int64 `json:"lint_warnings"`
	LintInfos    int64 `json:"lint_infos"`
	// Taint classification totals across analyzed jobs: loops bounded by
	// payload bytes and structures keyed by payload-derived values.
	PayloadLoops        int64         `json:"payload_loops"`
	PayloadKeyedStructs int64         `json:"payload_keyed_structs"`
	AnalysisLatency     HistogramJSON `json:"analysis_latency"`
}

// StoreStats is the /metrics rendering of one keyed store (memo.Stats).
type StoreStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Resident  int   `json:"resident"`
}

func storeJSON(s memo.Stats) StoreStats {
	return StoreStats{Hits: s.Hits, Misses: s.Misses, Evictions: s.Evictions, Resident: s.Resident}
}

func (a StoreStats) plus(b StoreStats) StoreStats {
	return StoreStats{a.Hits + b.Hits, a.Misses + b.Misses, a.Evictions + b.Evictions, a.Resident + b.Resident}
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
	Latency map[string]HistogramJSON `json:"latency"`
	// Fleet is the analysis pool's lifetime stats (per-job, not
	// per-request: one batch request contributes many jobs).
	Fleet FleetStats `json:"fleet"`
	// Stores reports every keyed store on one schema, so "which store
	// answered" reads off one place: the fleet's §3 predictions and whole
	// results (a result hit is a job that ran no analysis at all; only
	// jobs whose prediction lookup hit consult that store), and the
	// process-wide compiled programs and traffic traces, which servers
	// sharing a process also share and each report in full.
	Stores struct {
		Prediction StoreStats `json:"prediction"`
		Result     StoreStats `json:"result"`
		Program    StoreStats `json:"program"`
		Trace      StoreStats `json:"trace"`
	} `json:"stores"`
}

// metrics accumulates per-route counters and latency histograms.
type metrics struct {
	mu     sync.Mutex
	start  time.Time
	routes map[string]*RouteStats
	lat    map[string]*fleet.HistCollector
}

func newMetrics() *metrics {
	return &metrics{
		start:  time.Now(),
		routes: make(map[string]*RouteStats),
		lat:    make(map[string]*fleet.HistCollector),
	}
}

func (m *metrics) observe(route string, status int, d time.Duration) {
	m.mu.Lock()
	rs := m.routes[route]
	if rs == nil {
		rs = &RouteStats{}
		m.routes[route] = rs
	}
	h := m.lat[route]
	if h == nil {
		h = fleet.NewHistCollector()
		m.lat[route] = h
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
	m.mu.Unlock()
	h.Observe(d)
}

func (m *metrics) snapshot(fs fleet.Stats, queueDepth, queueCap int) MetricsSnapshot {
	out := MetricsSnapshot{
		Requests: make(map[string]RouteStats),
		Latency:  make(map[string]HistogramJSON),
	}
	m.mu.Lock()
	out.UptimeSeconds = time.Since(m.start).Seconds()
	for route, rs := range m.routes {
		out.Requests[route] = *rs
	}
	hists := make(map[string]*fleet.HistCollector, len(m.lat))
	for route, h := range m.lat {
		hists[route] = h
	}
	m.mu.Unlock()
	for route, h := range hists {
		out.Latency[route] = histJSON(h.Snapshot())
	}
	out.Queue.Depth = queueDepth
	out.Queue.Capacity = queueCap
	out.Fleet = FleetStats{
		JobsCompleted:       fs.JobsCompleted,
		JobsFailed:          fs.JobsFailed,
		JobsCanceled:        fs.JobsCanceled,
		JobsPanicked:        fs.JobsPanicked,
		CacheHits:           fs.CacheHits,
		CacheMisses:         fs.CacheMisses,
		CacheHitRate:        fs.HitRate(),
		CacheEvictions:      fs.CacheEvictions,
		Prewarmed:           fs.Prewarmed,
		LintErrors:          fs.LintErrors,
		LintWarnings:        fs.LintWarnings,
		LintInfos:           fs.LintInfos,
		PayloadLoops:        fs.PayloadLoops,
		PayloadKeyedStructs: fs.PayloadKeyedStructs,
		AnalysisLatency:     histJSON(fs.Analyses),
	}
	out.Stores.Prediction = storeJSON(fs.Predictions)
	out.Stores.Result = storeJSON(fs.Results)
	out.Stores.Program = storeJSON(interp.ProgramStoreStats())
	out.Stores.Trace = storeJSON(traffic.TraceStoreStats())
	return out
}

// MergeSnapshots folds per-worker /metrics snapshots into one
// cluster-wide view: route, fleet and store counters sum, latency
// histograms merge bucket-wise (workers share HistCollector's fixed
// bounds), queue depth/capacity add across workers, and the model is
// Ready only when every worker's is. Uptime is the minimum across
// workers — the window for which all counters have been accumulating.
// The cluster coordinator serves this from its own /metrics endpoint.
func MergeSnapshots(snaps []MetricsSnapshot) MetricsSnapshot {
	out := MetricsSnapshot{
		Requests: make(map[string]RouteStats),
		Latency:  make(map[string]HistogramJSON),
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
			out.Latency[route] = mergeHist(out.Latency[route], h)
		}
		out.Queue.Depth += s.Queue.Depth
		out.Queue.Capacity += s.Queue.Capacity
		out.Fleet = mergeFleet(out.Fleet, s.Fleet)
		out.Stores.Prediction = out.Stores.Prediction.plus(s.Stores.Prediction)
		out.Stores.Result = out.Stores.Result.plus(s.Stores.Result)
		out.Stores.Program = out.Stores.Program.plus(s.Stores.Program)
		out.Stores.Trace = out.Stores.Trace.plus(s.Stores.Trace)
	}
	total := out.Fleet.CacheHits + out.Fleet.CacheMisses
	if total > 0 {
		out.Fleet.CacheHitRate = float64(out.Fleet.CacheHits) / float64(total)
	}
	return out
}

// mergeHist adds histogram b into a. Bounds come from the shared
// HistCollector bucket layout, so equal-length bound slices merge by
// adding counts; a dimension mismatch (a worker on a different build)
// keeps a's buckets and only folds b's scalar moments.
func mergeHist(a, b HistogramJSON) HistogramJSON {
	if a.N == 0 {
		return b
	}
	if b.N == 0 {
		return a
	}
	out := HistogramJSON{
		BoundsMs: a.BoundsMs,
		Counts:   append([]int64(nil), a.Counts...),
	}
	if len(a.Counts) == len(b.Counts) {
		for i := range out.Counts {
			out.Counts[i] += b.Counts[i]
		}
	}
	out.N = a.N + b.N
	out.MinMs = a.MinMs
	if b.MinMs < out.MinMs {
		out.MinMs = b.MinMs
	}
	out.MaxMs = a.MaxMs
	if b.MaxMs > out.MaxMs {
		out.MaxMs = b.MaxMs
	}
	out.MeanMs = (a.MeanMs*float64(a.N) + b.MeanMs*float64(b.N)) / float64(out.N)
	return out
}

// mergeFleet sums b's counters into a. CacheHitRate is recomputed by
// the caller once all workers are folded in.
func mergeFleet(a, b FleetStats) FleetStats {
	a.JobsCompleted += b.JobsCompleted
	a.JobsFailed += b.JobsFailed
	a.JobsCanceled += b.JobsCanceled
	a.JobsPanicked += b.JobsPanicked
	a.CacheHits += b.CacheHits
	a.CacheMisses += b.CacheMisses
	a.CacheEvictions += b.CacheEvictions
	a.Prewarmed += b.Prewarmed
	a.LintErrors += b.LintErrors
	a.LintWarnings += b.LintWarnings
	a.LintInfos += b.LintInfos
	a.PayloadLoops += b.PayloadLoops
	a.PayloadKeyedStructs += b.PayloadKeyedStructs
	a.AnalysisLatency = mergeHist(a.AnalysisLatency, b.AnalysisLatency)
	return a
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
