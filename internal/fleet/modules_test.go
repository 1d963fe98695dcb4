package fleet

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"clara/internal/click"
	"clara/internal/core"
	"clara/internal/ir"
	"clara/internal/lang"
	"clara/internal/memo"
	"clara/internal/synth"
	"clara/internal/traffic"
)

// The module store's contract: one entry per (module, accel) holds the
// module's prediction and static facts, whether its jobs come in one
// batch, in several, or one at a time.

// uniqueJobs compiles n never-seen synthesized programs, the unique-src
// stream, each a job under the medium mix.
func uniqueJobs(t *testing.T, n int) []Job {
	t.Helper()
	mods, err := click.Modules(click.Table2Order)
	if err != nil {
		t.Fatal(err)
	}
	prof := core.CorpusProfile(mods)
	jobs := make([]Job, n)
	for p := range jobs {
		name := fmt.Sprintf("u%d", p)
		mod, err := lang.Compile(name, synth.Generate(synth.Config{Profile: prof, Seed: 1000003 + int64(p)}))
		if err != nil {
			t.Fatal(err)
		}
		jobs[p] = Job{Name: name, Mod: mod, WL: traffic.MediumMix}
	}
	return jobs
}

// TestModuleStoreAcrossBatches: 300 never-seen programs, run twice through
// one fleet, are predicted once each and kept; the second batch hits on
// every job, and every job's insights are what a fresh one-job fleet gives.
func TestModuleStoreAcrossBatches(t *testing.T) {
	jobs := uniqueJobs(t, 300)
	fl := newFleet(t, 2)
	var runs [2][]Result
	for b := range runs {
		res, err := fl.Run(jobs)
		if err != nil {
			t.Fatal(err)
		}
		runs[b] = res
	}
	for i, r := range runs[1] {
		if !r.CacheHit {
			t.Errorf("second batch, job %d (%s): prediction missed", i, r.Name)
		}
	}
	if s := fl.Stats(); s.CacheMisses != 300 || s.CacheHits != 300 || s.Predictions.Resident != 300 {
		t.Errorf("prediction store: %d misses, %d hits, %d resident; want 300 each", s.CacheMisses, s.CacheHits, s.Predictions.Resident)
	}
	for i, j := range jobs {
		want := canonical(t, run1(t, newFleet(t, 1), j).Insights)
		for b := range runs {
			r := runs[b][i]
			if r.Err != nil {
				t.Fatalf("batch %d, %s: %v", b+1, j.Name, r.Err)
			}
			if got := canonical(t, r.Insights); got != want {
				t.Errorf("batch %d, %s: insights differ from a one-job fleet's:\n%s\n%s", b+1, j.Name, got, want)
			}
		}
	}
}

// TestLoneJobsShareModuleFacts: a module analyzed under three workloads,
// one job at a time, computes its static half once.
func TestLoneJobsShareModuleFacts(t *testing.T) {
	facts := countFacts(t)
	fl := newFleet(t, 1)
	for _, wl := range []traffic.Spec{traffic.SmallFlows, traffic.LargeFlows, traffic.MediumMix} {
		j := elementJob("dnsproxy")
		j.WL = wl
		run1(t, fl, j)
	}
	if n := facts.Load(); n != 1 {
		t.Errorf("one module, three lone jobs: %d static halves, want 1", n)
	}
}

// TestModuleFactsPanicNotKept: when a module's static half panics, the job
// that computed it reports the panic with its own stack, the jobs waiting
// on it fail with the store's sentinel or a panic of their own, nothing is
// kept, and the next job on the module computes both halves again.
func TestModuleFactsPanicNotKept(t *testing.T) {
	const n = 4
	facts := countFacts(t)
	counted := moduleFacts
	started, release := make(chan struct{}), make(chan struct{})
	var calls atomic.Int32
	moduleFacts = func(*core.Clara, *ir.Module, *core.ModulePrediction) *core.ModuleFacts {
		if calls.Add(1) == 1 {
			close(started)
			<-release
		}
		panic("poisoned facts")
	}
	fl := newFleet(t, n)
	j := elementJob("tcpack")
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
			if c.calls.Load() < 1 {
				return false
			}
		}
		return true
	})
	close(release)
	wg.Wait()

	if r := results[0]; !r.Panicked || r.Err == nil ||
		!strings.Contains(r.Err.Error(), "poisoned facts") || !strings.Contains(r.Err.Error(), "goroutine") {
		t.Errorf("leader: panicked %v, err %v; want its own panic and stack", r.Panicked, r.Err)
	}
	for i, r := range results[1:] {
		if r.Insights != nil || !r.Panicked && !errors.Is(r.Err, memo.ErrPanicked) {
			t.Errorf("waiter %d: panicked %v, err %v; want a panic or memo.ErrPanicked", i+1, r.Panicked, r.Err)
		}
	}
	if s := fl.Stats(); s.Predictions.Resident != 0 || s.Results.Resident != 0 {
		t.Errorf("after the panic: %d predictions, %d results resident; want none", s.Predictions.Resident, s.Results.Resident)
	}

	moduleFacts = counted
	if r := run1(t, fl, j); r.CacheHit || facts.Load() != 1 {
		t.Errorf("next job: cache hit %v, %d static halves; want a miss and 1", r.CacheHit, facts.Load())
	}
}
