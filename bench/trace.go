package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"clara"
	"clara/internal/analysis"
	"clara/internal/core"
	"clara/internal/interp"
	"clara/internal/ir"
	"clara/internal/lang"
	"clara/internal/niccc"
	"clara/internal/server"
	"clara/internal/traffic"
)

// profilePackets is the host-profile length core.AnalyzeWithPredictionContext uses.
const profilePackets = 800

// span is one timed interval. Spans are recorded by this harness around its
// own calls into each layer's public functions — nothing inside the
// program is instrumented.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // -1 for a root
	Name    string `json:"name"`
	Op      int    `json:"op"`
	Job     int    `json:"job"` // -1 for a span that belongs to the whole op
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) add(name string, parent, op, job int, start, end int64) int {
	t.spans = append(t.spans, span{len(t.spans), parent, name, op, job, start, end})
	return len(t.spans) - 1
}

func (t *tracer) begin(name string, parent, op, job int) int {
	id := t.add(name, parent, op, job, 0, 0)
	t.spans[id].StartNS = t.now()
	return id
}

func (t *tracer) end(id int) { t.spans[id].EndNS = t.now() }

// selfTimes is each span's duration minus the part of it its children cover.
func selfTimes(spans []span) []int64 {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make([]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = s.EndNS - s.StartNS
		cs := kids[s.ID]
		sort.Slice(cs, func(a, b int) bool { return cs[a].StartNS < cs[b].StartNS })
		covered := s.StartNS
		for _, c := range cs {
			lo, hi := max(c.StartNS, covered), min(c.EndNS, s.EndNS)
			if hi > lo {
				self[s.ID] -= hi - lo
				covered = hi
			}
		}
	}
	return self
}

// isLayer reports whether a span times a call into one of the repo's
// packages, as opposed to a container ("pipeline.*") or a client-side
// wrapper around the door.
func isLayer(name string) bool {
	return !strings.HasPrefix(name, "pipeline.") && !strings.HasPrefix(name, "door.")
}

// traceRun is what the traced pass leaves behind.
type traceRun struct {
	spans    []span
	ops      int
	jobs     int
	elapsed  []float64 // per-job analysis time as the door reports it, ms
	failures []string  // verification failures
	digest   string    // sha256 over the door's insights in job order
	sum      map[string]float64
	// The door's counters around the traced ops alone.
	before, after doorStats
}

func (tr *traceRun) failf(format string, args ...any) {
	tr.failures = append(tr.failures, fmt.Sprintf(format, args...))
}

// pipeline runs one job through the stages the door runs, by calling each
// layer's public function itself, with a span around every call the door
// makes for this job: no core.predict span when the door answered from its
// prediction cache, no lang span for a library element (its module is a
// compiled singleton), interp.compile only for source the door has never
// seen. What a later stage needs and the door did not compute is computed
// before the job's span opens, untimed.
type pipeline struct {
	t    *tracer
	tool *clara.Tool
	http bool // the door answers over HTTP, so each result is JSON-encoded
	// preds memoises predictions by module hash: on a cache hit the door
	// skips core.predict, and scale-out still needs the prediction.
	preds map[[32]byte]*core.ModulePrediction
	sum   map[string]float64
}

func (p *pipeline) timed(name string, parent, op, ji int, f func()) {
	id := p.t.begin(name, parent, op, ji)
	f()
	p.t.end(id)
}

func (p *pipeline) run(parent, op, ji int, j job, doorHit bool) (*clara.Insights, *ir.Module, error) {
	ctx := context.Background()
	var mod, twin *ir.Module
	var ps core.ProfileSetup
	var mp *core.ModulePrediction
	var err error
	if j.elem != nil {
		if mod, ps, err = moduleOf(j); err != nil {
			return nil, nil, err
		}
	} else if twin, err = lang.Compile(j.name+"_twin", j.src); err != nil {
		// The twin is the same program under another name, hence another
		// fingerprint: compiling it for the interpreter costs what the
		// door's first touch of the real one cost, and misses the
		// process-wide program cache the door has already filled.
		return nil, nil, err
	}
	if doorHit && mod != nil {
		if mp = p.preds[ir.Fingerprint(mod)]; mp == nil {
			if mp, err = p.tool.Predictor.PredictModule(mod, niccc.AccelConfig{}); err != nil {
				return nil, nil, err
			}
			p.preds[ir.Fingerprint(mod)] = mp
		}
	}
	// The door's ProfileOnHost call replays the traffic trace from the
	// shared cache; the same call timed on its own, outside the job.
	t0 := time.Now()
	if _, err := traffic.Replay(traffics[j.wl].spec, profilePackets); err != nil {
		return nil, nil, err
	}
	p.sum["traffic.replay_us"] += us(time.Since(t0))

	jid := p.t.begin("pipeline.job", parent, op, ji)
	if j.src != "" {
		p.timed("lang.compile", jid, op, ji, func() { mod, err = lang.Compile(j.name, j.src) })
		if err != nil {
			return nil, nil, err
		}
		p.timed("ir.fingerprint", jid, op, ji, func() { ir.Fingerprint(mod) })
		p.sum["lang.src_bytes"] += float64(len(j.src))
	}
	if mp == nil {
		p.timed("core.predict", jid, op, ji, func() {
			mp, err = p.tool.Predictor.PredictModule(mod, niccc.AccelConfig{})
		})
		if err != nil {
			return nil, nil, err
		}
	}
	ins := &clara.Insights{NF: mod.Name, Workload: traffics[j.wl].spec.Name, Prediction: mp}
	p.timed("analysis.lint", jid, op, ji, func() { ins.Diagnostics = analysis.LintModule(mod, p.tool.LintConfig()) })
	p.timed("analysis.stateprofile", jid, op, ji, func() { ins.StateProfile = analysis.ComputeStateProfile(mod) })
	p.timed("core.algoid", jid, op, ji, func() { ins.Algorithm = p.tool.AlgoID.Classify(mod) })
	if twin != nil {
		p.timed("interp.compile", jid, op, ji, func() { err = interp.Precompile(twin) })
		if err != nil {
			return nil, nil, err
		}
	}
	var prof *core.HostProfile
	p.timed("interp.profile", jid, op, ji, func() {
		prof, err = core.ProfileOnHostContext(ctx, mod, ps, traffics[j.wl].spec, profilePackets)
	})
	if err != nil {
		return nil, nil, err
	}
	if len(mod.Globals) > 0 {
		p.timed("core.placement", jid, op, ji, func() {
			ins.Placement, err = core.SuggestPlacementContext(ctx, mod, prof, p.tool.Params)
		})
		if err != nil {
			return nil, nil, err
		}
		p.timed("core.packs", jid, op, ji, func() { ins.Packs = core.SuggestPacks(mod, prof, p.tool.Coalesce) })
	}
	p.timed("core.scaleout", jid, op, ji, func() {
		stateBytes := 0
		for _, g := range mod.Globals {
			stateBytes += g.SizeBytes()
		}
		ins.SuggestedCores = p.tool.Scaleout.Suggest(core.ScaleoutFeatures(mp, prof, traffics[j.wl].spec, stateBytes))
	})
	if p.http {
		p.timed("server.encode", jid, op, ji, func() {
			var buf bytes.Buffer
			enc := json.NewEncoder(&buf)
			enc.SetIndent("", "  ") // the server's encoder settings
			err = enc.Encode(server.AnalyzeResult{Name: j.name, Workload: ins.Workload, Insights: ins})
		})
		if err != nil {
			return nil, nil, err
		}
	}
	p.t.end(jid)

	blocks := mod.Handler().Blocks
	var steps float64
	for bi, b := range blocks {
		p.sum["ir.instrs"] += float64(len(b.Instrs))
		// The interpreter charges Machine.Steps by source-IR block size.
		steps += prof.BlockFreq[bi] * float64(len(b.Instrs))
	}
	p.sum["ir.blocks"] += float64(len(blocks))
	p.sum["analysis.diags"] += float64(len(ins.Diagnostics))
	p.sum["interp.steps"] += steps
	return ins, mod, nil
}

// tracedPass replays the first ops of the workload's op sequence with one
// client. Each op goes through the door, then each of its jobs through the
// pipeline above; the insights the pipeline assembles must equal the
// door's, which both verifies the door (cache, routing, serialisation) and
// proves the decomposition is still the pipeline.
func tracedPass(d door, tool *clara.Tool, minJobs int) (*traceRun, error) {
	tr := &traceRun{sum: map[string]float64{}}
	t := &tracer{t0: time.Now()}
	hd, _ := d.(*httpDoor)
	p := &pipeline{t: t, tool: tool, http: hd != nil, preds: map[[32]byte]*core.ModulePrediction{}, sum: tr.sum}
	var share [][]string // cluster: the element names each worker owns
	var err error
	if hd != nil && hd.workers != nil {
		if share, err = learnRouting(hd, d.jobs(0)); err != nil {
			return nil, err
		}
	}
	if tr.before, err = d.stats(); err != nil {
		return nil, err
	}
	digest := newDigest()
	var first *result
	for op := 0; tr.jobs < minJobs; op++ {
		tr.ops++
		js := d.jobs(op)
		start := t.now()
		rep, err := d.send(op, true)
		end := start + int64(rep.rtt)
		if err != nil {
			return nil, fmt.Errorf("op %d: %w", op, err)
		}
		if len(rep.results) != len(js) {
			return nil, fmt.Errorf("op %d: %d results for %d jobs", op, len(rep.results), len(js))
		}
		did := t.add("door.request", -1, op, -1, start, end)
		var reported time.Duration
		for _, r := range rep.results {
			reported += r.elapsed
			tr.sum["door.elapsed_us"] += us(r.elapsed)
			tr.elapsed = append(tr.elapsed, ms(r.elapsed))
		}
		tr.sum["door.rtt_us"] += us(time.Duration(end - start))
		tr.sum["door.in"] += float64(rep.in)
		tr.sum["door.out"] += float64(rep.out)
		if len(js) == 1 {
			// The reply says how long the analysis took, not when: centre it.
			inside := min(int64(reported), end-start)
			pad := (end - start - inside) / 2
			t.add("door.reported", did, op, 0, start+pad, start+pad+inside)
			if hd != nil {
				tr.sum["server.overhead_us"] += us(time.Duration(end-start) - reported)
				tr.sum["server.overhead_n"]++
			}
		}
		if share != nil {
			if err := directPair(hd, t, tr, op, share, end-start); err != nil {
				return nil, fmt.Errorf("op %d direct to workers: %w", op, err)
			}
		}

		bid := t.begin("pipeline.op", -1, op, -1)
		if _, ok := d.(*fleetDoor); ok {
			// A fresh Fleet predicts the batch's distinct modules in one
			// serial sweep before its workers start.
			var mods []*ir.Module
			seen := map[*ir.Module]bool{}
			for _, j := range js {
				if m, err := j.elem.Module(); err == nil && !seen[m] {
					seen[m] = true
					mods = append(mods, m)
				}
			}
			var mps []*core.ModulePrediction
			p.timed("core.predict", bid, op, -1, func() {
				mps, err = tool.Predictor.PredictModules(mods, niccc.AccelConfig{})
			})
			if err != nil {
				return nil, err
			}
			for i, m := range mods {
				p.preds[ir.Fingerprint(m)] = mps[i]
			}
		}
		for ji, j := range js {
			r := rep.results[ji]
			ins, mod, err := p.run(bid, op, ji, j, r.cacheHit)
			if err != nil {
				return nil, fmt.Errorf("op %d job %s: %w", op, j.name, err)
			}
			for _, f := range verifyJob(j, mod, r, ins, tool) {
				tr.failf("op %d job %s/%s: %s", op, j.name, traffics[j.wl].name, f)
			}
			digest.add(r.insights)
			tr.jobs++
		}
		t.end(bid)
		if op == 0 {
			first = &rep.results[0]
		}
	}
	if tr.after, err = d.stats(); err != nil {
		return nil, err
	}
	if d.jobs(0)[0].src != "" {
		// The first program again, after every cache has churned past it.
		rep, err := d.send(0, true)
		if err != nil {
			return nil, fmt.Errorf("resubmitting op 0: %w", err)
		}
		if !bytes.Equal(canonical(rep.results[0].insights), canonical(first.insights)) {
			tr.failf("op 0 resubmitted after %d other programs: insights differ", tr.jobs-1)
		}
	}
	tr.spans, tr.digest = t.spans, digest.sum()
	return tr, nil
}

// learnRouting finds, from outside, which worker the coordinator routes each
// element of a request to (every op of a cluster workload requests the same
// elements): one element per request, then whichever worker's job count moved.
func learnRouting(hd *httpDoor, js []job) ([][]string, error) {
	share := make([][]string, len(hd.workers))
	before, err := hd.stats()
	if err != nil {
		return nil, err
	}
	for _, j := range js {
		name := j.name
		if _, err := hd.post(hd.url, server.AnalyzeRequest{NF: name, Workload: traffics[0].name}, 1, false); err != nil {
			return nil, err
		}
		after, err := hd.stats()
		if err != nil {
			return nil, err
		}
		for wi := range hd.workers {
			if after.routed[wi] > before.routed[wi] {
				share[wi] = append(share[wi], name)
			}
		}
		before = after
	}
	return share, nil
}

// directPair sends op's request the way the coordinator does — each
// worker its share, concurrently — but straight to the workers. The
// coordinator's RTT minus the slower of the two is the hop it adds; a
// direct request's RTT minus the analysis time it reports is what one
// server adds around its (single-threaded) fleet.
func directPair(hd *httpDoor, t *tracer, tr *traceRun, op int, share [][]string, coordRTT int64) error {
	req, _ := hd.gen(op)
	var wg sync.WaitGroup
	errs := make([]error, len(share))
	rtts := make([]int64, len(share))
	reported := make([]time.Duration, len(share))
	start := t.now()
	for wi, names := range share {
		if len(names) == 0 {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			rep, err := hd.post(hd.workers[wi], server.AnalyzeRequest{NFs: names, Workload: req.Workload}, len(names), true)
			rtts[wi], errs[wi] = int64(rep.rtt), err
			for _, r := range rep.results {
				reported[wi] += r.elapsed
			}
		}()
	}
	wg.Wait()
	var slowest int64
	for wi := range share {
		if errs[wi] != nil {
			return errs[wi]
		}
		if len(share[wi]) == 0 {
			continue
		}
		slowest = max(slowest, rtts[wi])
		tr.sum["server.overhead_us"] += us(time.Duration(rtts[wi]) - reported[wi])
		tr.sum["server.overhead_n"]++
		tr.sum["cluster.direct_reqs"]++
	}
	t.add("door.direct", -1, op, -1, start, start+slowest)
	tr.sum["cluster.hop_us"] += us(time.Duration(coordRTT - slowest))
	return nil
}

// allocsPerPacket is the heap allocations one more profiled packet costs:
// the difference between a 1600- and an 800-packet profile of the same
// job, the least of three tries (background goroutines allocate too).
func allocsPerPacket(j job) (float64, error) {
	mod, ps, err := moduleOf(j)
	if err != nil {
		return 0, err
	}
	count := func(n int) (uint64, error) {
		var a, b runtime.MemStats
		runtime.ReadMemStats(&a)
		_, err := core.ProfileOnHost(mod, ps, traffics[j.wl].spec, n)
		runtime.ReadMemStats(&b)
		return b.Mallocs - a.Mallocs, err
	}
	if _, err := count(2 * profilePackets); err != nil { // grow the replay trace and the machine pool first
		return 0, err
	}
	best := -1.0
	for try := 0; try < 3; try++ {
		short, _ := count(profilePackets)
		long, _ := count(2 * profilePackets)
		if d := (float64(long) - float64(short)) / profilePackets; best < 0 || d < best {
			best = max(d, 0)
		}
	}
	return best, nil
}

func moduleOf(j job) (*ir.Module, core.ProfileSetup, error) {
	if j.elem != nil {
		mod, err := j.elem.Module()
		return mod, core.ProfileSetup{Setup: j.elem.Setup, LPMTable: j.elem.Routes}, err
	}
	mod, err := lang.Compile(j.name, j.src)
	return mod, core.ProfileSetup{}, err
}
