package fleet

import (
	"context"
	"errors"
	"fmt"
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

// Histogram is a snapshot of the analysis wall-time distribution.
type Histogram struct {
	// Bounds[i] is the inclusive upper bound of Counts[i];
	// Counts[len(Bounds)] is the overflow bucket.
	Bounds []time.Duration
	Counts []int64
	Min    time.Duration
	Max    time.Duration
	Sum    time.Duration
	N      int64
}

// Mean returns the mean analysis time.
func (h Histogram) Mean() time.Duration {
	if h.N == 0 {
		return 0
	}
	return h.Sum / time.Duration(h.N)
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
		if i < len(h.Bounds) {
			label = "≤" + h.Bounds[i].String()
		}
		parts = append(parts, fmt.Sprintf("%s:%d", label, c))
	}
	return fmt.Sprintf("n=%d min=%s mean=%s max=%s [%s]",
		h.N, h.Min, h.Mean(), h.Max, strings.Join(parts, " "))
}

// Stats is a consistent snapshot of a fleet's lifetime metrics.
type Stats struct {
	JobsCompleted int64
	JobsFailed    int64
	// JobsCanceled counts jobs that ended with a context error — either
	// never dispatched after cancellation or aborted mid-analysis.
	JobsCanceled int64
	// JobsPanicked counts jobs whose analysis panicked (the panic is
	// isolated per job; see Result.Panicked). Disjoint from JobsFailed.
	JobsPanicked int64
	// CacheHits and CacheMisses are the prediction store's lookup
	// counters: a hit is a job that skipped the §3 computation and got a
	// prediction, everything else — the computation itself, or sharing a
	// failed one — is a miss.
	CacheHits   int64
	CacheMisses int64
	// CacheEvictions counts prediction-store entries dropped by the LRU
	// cap over the fleet's lifetime. A high rate relative to misses means
	// the cap is smaller than the working set (each eviction is a future
	// recompute), which in cluster mode reads as poor per-worker locality.
	CacheEvictions int64
	// Predictions and Results are the two stores' own reports: lifetime
	// hits, misses and evictions, and entries resident now. CacheHits,
	// CacheMisses and CacheEvictions above repeat Predictions' counters
	// under the names they have always had. Only jobs whose prediction
	// lookup hit consult the result store, so Results' lookups are a subset
	// of Predictions' hits.
	Predictions memo.Stats
	Results     memo.Stats
	// Prewarmed is always 0: every prediction is computed by the job that
	// first asks for it. The field stays because the benchmark harness
	// (bench/doors.go) reads it.
	Prewarmed int64
	// Lint findings across all completed jobs, by severity.
	LintErrors   int64
	LintWarnings int64
	LintInfos    int64
	// Taint classification across all completed jobs: payload-bounded
	// loops and payload-keyed structures (from each NF's static state
	// profile).
	PayloadLoops        int64
	PayloadKeyedStructs int64
	// Analyses is the per-analysis wall-time distribution.
	Analyses Histogram
	// Stages is the stage clock's distribution over the fleet's jobs, one
	// histogram per stage (the server stages stay empty here).
	Stages [core.NStages]Histogram
	// Wall is the cumulative wall time of every Run call.
	Wall time.Duration
}

// HitRate returns cache hits over prediction lookups, in [0,1].
func (s Stats) HitRate() float64 {
	total := s.CacheHits + s.CacheMisses
	if total == 0 {
		return 0
	}
	return float64(s.CacheHits) / float64(total)
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
		s.CacheHits, s.CacheMisses, 100*s.HitRate())
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

// hist accumulates a wall-time histogram over the standard bucket
// bounds; its owner serializes access.
type hist struct {
	counts [len(histBounds) + 1]int64
	min    time.Duration
	max    time.Duration
	sum    time.Duration
	n      int64
}

func (h *hist) observe(d time.Duration) {
	if h.n == 0 || d < h.min {
		h.min = d
	}
	if d > h.max {
		h.max = d
	}
	h.sum += d
	h.n++
	h.counts[bucket(d)]++
}

func (h *hist) snapshot() Histogram {
	return Histogram{
		Bounds: append([]time.Duration(nil), histBounds[:]...),
		Counts: append([]int64(nil), h.counts[:]...),
		Min:    h.min,
		Max:    h.max,
		Sum:    h.sum,
		N:      h.n,
	}
}

// HistCollector accumulates a wall-time histogram over the standard
// bucket bounds; it is safe for concurrent use. The fleet's per-analysis
// histogram and the serving layer's per-endpoint request-latency
// histograms are both instances of it.
type HistCollector struct {
	mu sync.Mutex
	h  hist
}

// NewHistCollector returns an empty histogram collector.
func NewHistCollector() *HistCollector { return &HistCollector{} }

// Observe records one duration.
func (h *HistCollector) Observe(d time.Duration) {
	h.mu.Lock()
	h.h.observe(d)
	h.mu.Unlock()
}

// Snapshot returns a consistent copy of the distribution.
func (h *HistCollector) Snapshot() Histogram {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.h.snapshot()
}

// StageHistograms keeps one wall-time histogram per stage of the stage
// clock, under one lock; it is safe for concurrent use. A stage's
// histogram counts only the jobs or requests that spent time in it.
type StageHistograms struct {
	mu sync.Mutex
	h  [core.NStages]hist
}

// Observe records every stage st spent time in.
func (s *StageHistograms) Observe(st *core.Stages) {
	s.mu.Lock()
	for i, d := range st {
		if d > 0 {
			s.h[i].observe(d)
		}
	}
	s.mu.Unlock()
}

// Snapshot returns every stage's distribution.
func (s *StageHistograms) Snapshot() (out [core.NStages]Histogram) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.h {
		out[i] = s.h[i].snapshot()
	}
	return out
}

// collector accumulates metrics under one mutex. Analysis latencies are
// a few milliseconds, so a single lock per completed job is invisible
// next to the work it measures and keeps snapshots trivially consistent.
// The stage histograms keep their own.
type collector struct {
	mu     sync.Mutex
	s      Stats
	stages StageHistograms
	hist   *HistCollector
}

func newCollector() *collector {
	return &collector{hist: NewHistCollector()}
}

func (c *collector) record(r Result) {
	c.stages.Observe(&r.Stages)
	c.mu.Lock()
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
	c.mu.Unlock()
	c.hist.Observe(r.Elapsed)
}

// recordSkipped accounts a job that was canceled before dispatch: it ran
// no analysis, so only the canceled counter moves.
func (c *collector) recordSkipped() {
	c.mu.Lock()
	c.s.JobsCanceled++
	c.mu.Unlock()
}

func bucket(d time.Duration) int {
	for i, b := range histBounds {
		if d <= b {
			return i
		}
	}
	return len(histBounds)
}

func (c *collector) addWall(d time.Duration) {
	c.mu.Lock()
	c.s.Wall += d
	c.mu.Unlock()
}

func (c *collector) snapshot() Stats {
	c.mu.Lock()
	s := c.s
	c.mu.Unlock()
	s.Stages = c.stages.Snapshot()
	s.Analyses = c.hist.Snapshot()
	return s
}
