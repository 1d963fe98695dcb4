package fleet

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"time"

	"clara/internal/core"
	"clara/internal/memo"
)

// histBounds are the upper bounds of the per-analysis wall-time
// histogram buckets; the final implicit bucket is +Inf.
var histBounds = [...]time.Duration{
	10 * time.Microsecond, // a result hit is a few µs
	100 * time.Microsecond,
	500 * time.Microsecond,
	time.Millisecond,
	2 * time.Millisecond,
	5 * time.Millisecond,
	10 * time.Millisecond,
	20 * time.Millisecond,
	50 * time.Millisecond,
	100 * time.Millisecond,
	200 * time.Millisecond,
	500 * time.Millisecond,
	time.Second,
}

// boundsMs is histBounds in milliseconds, the unit Histogram carries.
var boundsMs = func() (out [len(histBounds)]float64) {
	for i, b := range histBounds {
		out[i] = ms(b)
	}
	return out
}()

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// dur is the duration ms milliseconds stand for, to the nanosecond.
func dur(ms float64) time.Duration { return time.Duration(math.Round(ms * float64(time.Millisecond))) }

// Histogram is a wall-time distribution in milliseconds: a Hist's
// snapshot, and as it is the /metrics form of one.
type Histogram struct {
	// BoundsMs[i] is the inclusive upper bound of Counts[i];
	// Counts[len(BoundsMs)] is the overflow bucket.
	BoundsMs []float64 `json:"bounds_ms"`
	Counts   []int64   `json:"counts"`
	N        int64     `json:"n"`
	MinMs    float64   `json:"min_ms"`
	MeanMs   float64   `json:"mean_ms"`
	MaxMs    float64   `json:"max_ms"`
}

// Merge returns the distribution of h's and o's observations together.
// Every Hist shares the standard bounds, so equal-length bucket slices
// merge by adding counts; a dimension mismatch (a worker on a different
// build) keeps h's buckets and only folds o's moments.
func (h Histogram) Merge(o Histogram) Histogram {
	if h.N == 0 {
		return o
	}
	if o.N == 0 {
		return h
	}
	out := Histogram{
		BoundsMs: h.BoundsMs,
		Counts:   append([]int64(nil), h.Counts...),
		N:        h.N + o.N,
		MinMs:    min(h.MinMs, o.MinMs),
		MaxMs:    max(h.MaxMs, o.MaxMs),
	}
	if len(h.Counts) == len(o.Counts) {
		for i := range out.Counts {
			out.Counts[i] += o.Counts[i]
		}
	}
	out.MeanMs = (h.MeanMs*float64(h.N) + o.MeanMs*float64(o.N)) / float64(out.N)
	return out
}

// String renders the non-empty buckets compactly.
func (h Histogram) String() string {
	if h.N == 0 {
		return "no analyses"
	}
	var parts []string
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		label := "+Inf"
		if i < len(h.BoundsMs) {
			label = "≤" + dur(h.BoundsMs[i]).String()
		}
		parts = append(parts, fmt.Sprintf("%s:%d", label, c))
	}
	return fmt.Sprintf("n=%d min=%s mean=%s max=%s [%s]",
		h.N, dur(h.MinMs), dur(h.MeanMs), dur(h.MaxMs), strings.Join(parts, " "))
}

// Hist accumulates a wall-time histogram over the standard bucket bounds.
// It takes no lock: its owner serializes access.
type Hist struct {
	counts        [len(histBounds) + 1]int64
	min, max, sum time.Duration
	n             int64
}

// Observe records one duration.
func (h *Hist) Observe(d time.Duration) {
	if h.n == 0 || d < h.min {
		h.min = d
	}
	h.max = max(h.max, d)
	h.sum += d
	h.n++
	i := 0
	for i < len(histBounds) && d > histBounds[i] {
		i++
	}
	h.counts[i]++
}

// Snapshot returns the distribution observed so far.
func (h *Hist) Snapshot() Histogram {
	out := Histogram{
		BoundsMs: append([]float64(nil), boundsMs[:]...),
		Counts:   append([]int64(nil), h.counts[:]...),
		N:        h.n,
		MinMs:    ms(h.min),
		MaxMs:    ms(h.max),
	}
	if h.n > 0 {
		out.MeanMs = ms(h.sum) / float64(h.n)
	}
	return out
}

// Stats is a consistent snapshot of a fleet's lifetime metrics, and as it
// is the "fleet" member of /metrics.
type Stats struct {
	JobsCompleted int64 `json:"jobs_completed"`
	JobsFailed    int64 `json:"jobs_failed"`
	// JobsCanceled counts jobs that ended with a context error — either
	// never dispatched after cancellation or aborted mid-analysis.
	JobsCanceled int64 `json:"jobs_canceled"`
	// JobsPanicked counts jobs whose analysis panicked (the panic is
	// isolated per job; see Result.Panicked). Disjoint from JobsFailed.
	JobsPanicked int64 `json:"jobs_panicked"`
	// CacheHits and CacheMisses are the module store's lookup counters:
	// a hit is a job that skipped the static half (the §3 prediction and
	// the module's facts) and got it, everything else — the computation
	// itself, or sharing a failed one — is a miss.
	CacheHits   int64 `json:"cache_hits"`
	CacheMisses int64 `json:"cache_misses"`
	// CacheHitRate is CacheHits over module lookups, in [0,1].
	CacheHitRate float64 `json:"cache_hit_rate"`
	// CacheEvictions counts module-store entries dropped by the LRU
	// cap over the fleet's lifetime. A high rate relative to misses means
	// the cap is smaller than the working set (each eviction is a future
	// recompute), which in cluster mode reads as poor per-worker locality.
	CacheEvictions int64 `json:"cache_evictions"`
	// Predictions and Results are the two stores' own reports: lifetime
	// hits, misses and evictions, and entries resident now. Predictions
	// is the module store's, under the name it has always had, and
	// CacheHits, CacheMisses and CacheEvictions above repeat its counters.
	// Only jobs whose module lookup hit consult the result store, so Results' lookups are a subset
	// of Predictions' hits. /metrics reports them under "stores".
	Predictions memo.Stats `json:"-"`
	Results     memo.Stats `json:"-"`
	// Prewarmed is always 0: every prediction is computed by the job that
	// first asks for it. The field stays because the benchmark harness
	// (bench/doors.go) reads it.
	Prewarmed int64 `json:"prewarmed"`
	// Lint findings across all completed jobs, by severity.
	LintErrors   int64 `json:"lint_errors"`
	LintWarnings int64 `json:"lint_warnings"`
	LintInfos    int64 `json:"lint_infos"`
	// Taint classification across all completed jobs: payload-bounded
	// loops and payload-keyed structures (from each NF's static state
	// profile).
	PayloadLoops        int64 `json:"payload_loops"`
	PayloadKeyedStructs int64 `json:"payload_keyed_structs"`
	// Analyses is the per-analysis wall-time distribution.
	Analyses Histogram `json:"analysis_latency"`
	// Stages is the stage clock's distribution over the fleet's jobs, one
	// histogram per stage (the server stages stay empty here). /metrics
	// reports it, by stage name, under "stages".
	Stages [core.NStages]Histogram `json:"-"`
	// Wall is the cumulative wall time of every Run call.
	Wall time.Duration `json:"-"`
}

// Add folds o into s: counters sum, distributions merge, and the hit rate
// is recomputed over the summed lookups. A cluster's fleet is its
// workers' Stats added up.
func (s *Stats) Add(o Stats) {
	s.JobsCompleted += o.JobsCompleted
	s.JobsFailed += o.JobsFailed
	s.JobsCanceled += o.JobsCanceled
	s.JobsPanicked += o.JobsPanicked
	s.CacheHits += o.CacheHits
	s.CacheMisses += o.CacheMisses
	s.CacheEvictions += o.CacheEvictions
	s.Predictions.Add(o.Predictions)
	s.Results.Add(o.Results)
	s.Prewarmed += o.Prewarmed
	s.LintErrors += o.LintErrors
	s.LintWarnings += o.LintWarnings
	s.LintInfos += o.LintInfos
	s.PayloadLoops += o.PayloadLoops
	s.PayloadKeyedStructs += o.PayloadKeyedStructs
	s.Analyses = s.Analyses.Merge(o.Analyses)
	for i := range s.Stages {
		s.Stages[i] = s.Stages[i].Merge(o.Stages[i])
	}
	s.Wall += o.Wall
	s.setHitRate()
}

func (s *Stats) setHitRate() {
	if total := s.CacheHits + s.CacheMisses; total > 0 {
		s.CacheHitRate = float64(s.CacheHits) / float64(total)
	}
}

// String renders the snapshot as the CLI's stats footer.
func (s Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "jobs: %d completed, %d failed", s.JobsCompleted, s.JobsFailed)
	if s.JobsCanceled > 0 {
		fmt.Fprintf(&b, ", %d canceled", s.JobsCanceled)
	}
	if s.JobsPanicked > 0 {
		fmt.Fprintf(&b, ", %d panicked", s.JobsPanicked)
	}
	b.WriteString("\n")
	fmt.Fprintf(&b, "prediction cache: %d hits, %d misses (%.0f%% hit rate)",
		s.CacheHits, s.CacheMisses, 100*s.CacheHitRate)
	if s.CacheEvictions > 0 {
		fmt.Fprintf(&b, ", %d evicted", s.CacheEvictions)
	}
	b.WriteString("\n")
	fmt.Fprintf(&b, "lint findings: %d errors, %d warnings, %d notes\n",
		s.LintErrors, s.LintWarnings, s.LintInfos)
	if s.PayloadLoops > 0 || s.PayloadKeyedStructs > 0 {
		fmt.Fprintf(&b, "payload-dependent: %d loop(s), %d keyed structure(s)\n",
			s.PayloadLoops, s.PayloadKeyedStructs)
	}
	fmt.Fprintf(&b, "analysis time: %s\n", s.Analyses)
	fmt.Fprintf(&b, "batch wall time: %s\n", s.Wall)
	return b.String()
}

// collector accumulates metrics under one mutex, which a finished job
// takes once. Analysis latencies are a few milliseconds, so a single lock
// per completed job is invisible next to the work it measures and keeps
// snapshots trivially consistent.
type collector struct {
	mu       sync.Mutex
	s        Stats
	analyses Hist
	stages   [core.NStages]Hist
}

func (c *collector) record(r Result) {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch {
	case r.Panicked:
		c.s.JobsPanicked++
	case r.Err != nil && (errors.Is(r.Err, context.Canceled) || errors.Is(r.Err, context.DeadlineExceeded)):
		c.s.JobsCanceled++
	case r.Err != nil:
		c.s.JobsFailed++
	default:
		c.s.JobsCompleted++
	}
	c.s.LintErrors += int64(r.Lint.Errors)
	c.s.LintWarnings += int64(r.Lint.Warnings)
	c.s.LintInfos += int64(r.Lint.Infos)
	c.s.PayloadLoops += int64(r.PayloadLoops)
	c.s.PayloadKeyedStructs += int64(r.PayloadKeyedStructs)
	c.analyses.Observe(r.Elapsed)
	// A stage's histogram counts only the jobs that spent time in it.
	for i, d := range r.Stages {
		if d > 0 {
			c.stages[i].Observe(d)
		}
	}
}

// recordSkipped accounts a job that was canceled before dispatch: it ran
// no analysis, so only the canceled counter moves.
func (c *collector) recordSkipped() {
	c.mu.Lock()
	c.s.JobsCanceled++
	c.mu.Unlock()
}

func (c *collector) addWall(d time.Duration) {
	c.mu.Lock()
	c.s.Wall += d
	c.mu.Unlock()
}

func (c *collector) snapshot() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.s
	s.Analyses = c.analyses.Snapshot()
	for i := range c.stages {
		s.Stages[i] = c.stages[i].Snapshot()
	}
	return s
}
