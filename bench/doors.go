package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"time"

	"clara"
	"clara/internal/cluster"
	"clara/internal/server"
)

// job is one (NF, workload) analysis as a door receives it: a library
// element by name, or NFC source.
type job struct {
	name string
	src  string         // NFC source; "" for a library element
	elem *clara.Element // nil for a source job
	wl   int            // index into traffics
}

// result is one job's reply, decoded.
type result struct {
	name, workload string
	insights       *clara.Insights
	cacheHit       bool
	elapsed        time.Duration // analysis time as the door reports it
}

// reply is one op's outcome at the client.
type reply struct {
	results []result
	rtt     time.Duration // request sent to reply read; decoding it is not included
	in, out int           // request and response body bytes (0 through the fleet door)
}

// doorStats are the counters a door exports (Fleet.Stats, /metrics),
// cumulative since it opened.
type doorStats struct {
	hits, misses, prewarmed, evictions int64
	rejected                           int64   // 429s
	retries                            int64   // coordinator re-dispatches
	routed                             []int64 // jobs the coordinator sent each worker
	workerReqs                         int64   // analyze requests the workers saw
}

// A door is one of Clara's front doors with a workload's seeded inputs
// behind it. Op indices below zero are the warm-up inputs.
type door interface {
	// jobs lists op i's jobs in request order: a pure function of (seed, i).
	jobs(i int) []job
	// send puts op i through the door. Without decode it checks only what
	// costs a client nothing — status, the failed-jobs header, a per-job
	// error — so the timed run spends no client CPU on the shared cores.
	send(i int, decode bool) (reply, error)
	stats() (doorStats, error)
	// parallelism is how many of one op's jobs the door can run at once.
	parallelism() int
	close()
}

// fleetDoor is the `clara -fleet` door: the 51-job library batch through
// Fleet.Run, a fresh Fleet per pass (cold prediction cache, prewarm sweep
// every pass). The seed orders the batch, so the pool's straggler handling
// is measured over many arrangements of the heavy elements, not one.
type fleetDoor struct {
	tool *clara.Tool
	seed int64
	base []clara.FleetJob
	meta []job

	mu  sync.Mutex
	agg doorStats
}

func openFleet(tool *clara.Tool, _ string, seed int64) (door, error) {
	base, err := clara.LibraryJobs()
	if err != nil {
		return nil, err
	}
	d := &fleetDoor{tool: tool, seed: seed, base: base}
	for i, j := range base {
		d.meta = append(d.meta, job{name: j.Name, elem: clara.GetElement(j.Name), wl: i % len(traffics)})
	}
	return d, nil
}

func (d *fleetDoor) order(i int) []int {
	return rand.New(rand.NewSource(d.seed*1000003 + int64(i))).Perm(len(d.base))
}

func (d *fleetDoor) jobs(i int) []job {
	out := make([]job, len(d.base))
	for k, p := range d.order(i) {
		out[k] = d.meta[p]
	}
	return out
}

func (d *fleetDoor) send(i int, decode bool) (reply, error) {
	batch := make([]clara.FleetJob, len(d.base))
	for k, p := range d.order(i) {
		batch[k] = d.base[p]
	}
	fl, err := clara.NewFleet(d.tool, clara.FleetConfig{})
	if err != nil {
		return reply{}, err
	}
	t0 := time.Now()
	res, err := fl.Run(batch)
	if err != nil {
		return reply{}, err
	}
	rep := reply{rtt: time.Since(t0)}
	st := fl.Stats()
	d.mu.Lock()
	d.agg.hits += st.CacheHits
	d.agg.misses += st.CacheMisses
	d.agg.prewarmed += st.Prewarmed
	d.agg.evictions += st.CacheEvictions
	d.mu.Unlock()
	for _, r := range res {
		if r.Err != nil || r.Insights == nil {
			return reply{}, fmt.Errorf("job %s/%s: %v", r.Name, r.Workload, r.Err)
		}
		if decode {
			rep.results = append(rep.results, result{r.Name, r.Workload, r.Insights, r.CacheHit, r.Elapsed})
		}
	}
	return rep, nil
}

func (d *fleetDoor) stats() (doorStats, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.agg, nil
}

func (d *fleetDoor) parallelism() int { return runtime.GOMAXPROCS(0) }
func (d *fleetDoor) close()           {}

// httpDoor is POST /v1/analyze on an in-process server (`clara -serve`) or
// coordinator (`clara -coordinator`) over loopback.
type httpDoor struct {
	url     string
	client  *http.Client
	gen     func(i int) (server.AnalyzeRequest, []job)
	par     int
	workers []string // coordinator only: worker base URLs
	closers []func()
}

func newClient(conns int) *http.Client {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConnsPerHost = conns
	return &http.Client{Transport: tr}
}

// openServer serves one server.New with its default config.
func openServer(tool *clara.Tool, hash string, gen func(int) (server.AnalyzeRequest, []job)) (door, error) {
	srv, err := clara.NewServer(clara.ServerConfig{Tool: tool, Model: clara.ModelInfo{Hash: hash, WarmStart: true}})
	if err != nil {
		return nil, err
	}
	ts := httptest.NewServer(srv.Handler())
	client := newClient(runtime.NumCPU())
	return &httpDoor{
		url: ts.URL, client: client, gen: gen, par: runtime.GOMAXPROCS(0),
		closers: []func(){client.CloseIdleConnections, ts.Close},
	}, nil
}

// openCluster serves a coordinator over two single-threaded workers. The
// coordinator routes by sha256(module hash ‖ worker address), so the
// workers get fixed names — resolved to their loopback listeners by the
// coordinator's dialer — and the split is the same on every run (these
// names give the 18 light elements an 8/10 split).
func openCluster(tool *clara.Tool, hash string, gen func(int) (server.AnalyzeRequest, []job)) (door, error) {
	d := &httpDoor{gen: gen, par: 2, client: newClient(runtime.NumCPU())}
	d.closers = append(d.closers, d.client.CloseIdleConnections)
	real := map[string]string{}
	var names []string
	for i := 0; i < 2; i++ {
		srv, err := clara.NewServer(clara.ServerConfig{Tool: tool, Workers: 1, Model: clara.ModelInfo{Hash: hash, WarmStart: true}})
		if err != nil {
			d.close()
			return nil, err
		}
		ts := httptest.NewServer(srv.Handler())
		d.closers = append(d.closers, ts.Close)
		d.workers = append(d.workers, ts.URL)
		name := fmt.Sprintf("clara-worker-%d:80", i)
		real[name] = ts.Listener.Addr().String()
		names = append(names, name)
	}
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.DialContext = func(ctx context.Context, network, addr string) (net.Conn, error) {
		return (&net.Dialer{}).DialContext(ctx, network, real[addr])
	}
	coord, err := clara.NewCoordinator(clara.ClusterConfig{Workers: names, Client: &http.Client{Transport: tr}})
	if err != nil {
		d.close()
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	coord.Start(ctx) // the health probes are part of the door
	cs := httptest.NewServer(coord.Handler())
	d.url = cs.URL
	d.closers = append(d.closers, cancel, cs.Close, tr.CloseIdleConnections)
	return d, nil
}

func (d *httpDoor) jobs(i int) []job {
	_, js := d.gen(i)
	return js
}

func (d *httpDoor) send(i int, decode bool) (reply, error) {
	req, js := d.gen(i)
	return d.post(d.url, req, len(js), decode)
}

// post sends one analyze request to base and checks the reply as send
// describes.
func (d *httpDoor) post(base string, req server.AnalyzeRequest, njobs int, decode bool) (reply, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return reply{}, err
	}
	t0 := time.Now()
	resp, err := d.client.Post(base+"/v1/analyze", "application/json", bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return reply{}, err
	}
	rep := reply{rtt: time.Since(t0), in: len(body), out: len(out)}
	if resp.StatusCode != http.StatusOK {
		return reply{}, fmt.Errorf("HTTP %d: %.200s", resp.StatusCode, out)
	}
	if n := resp.Header.Get(server.FailedJobsHeader); n != "" {
		return reply{}, fmt.Errorf("%s: %s", server.FailedJobsHeader, n)
	}
	if !decode {
		if bytes.Contains(out, []byte(`"error":`)) {
			return reply{}, fmt.Errorf("per-job error in reply: %.200s", out)
		}
		return rep, nil
	}
	var ar server.AnalyzeResponse
	if err := json.Unmarshal(out, &ar); err != nil {
		return reply{}, err
	}
	if len(ar.Results) != njobs {
		return reply{}, fmt.Errorf("%d results for %d jobs", len(ar.Results), njobs)
	}
	for _, r := range ar.Results {
		if r.Error != "" || r.Insights == nil {
			return reply{}, fmt.Errorf("job %s/%s: %s", r.Name, r.Workload, r.Error)
		}
		rep.results = append(rep.results, result{r.Name, r.Workload, r.Insights, r.CacheHit,
			time.Duration(r.ElapsedMs * float64(time.Millisecond))})
	}
	return rep, nil
}

func (d *httpDoor) stats() (doorStats, error) {
	resp, err := d.client.Get(d.url + "/metrics")
	if err != nil {
		return doorStats{}, err
	}
	defer resp.Body.Close()
	var snap server.MetricsSnapshot
	var st doorStats
	if d.workers == nil {
		err = json.NewDecoder(resp.Body).Decode(&snap)
	} else {
		var cs cluster.Snapshot
		err = json.NewDecoder(resp.Body).Decode(&cs)
		snap = cs.Merged
		st.retries = cs.Cluster.Retries
		for _, w := range cs.Cluster.Workers {
			st.routed = append(st.routed, w.JobsRouted)
		}
	}
	if err != nil {
		return doorStats{}, err
	}
	st.hits, st.misses = snap.Fleet.CacheHits, snap.Fleet.CacheMisses
	st.prewarmed, st.evictions = snap.Fleet.Prewarmed, snap.Fleet.CacheEvictions
	st.rejected = snap.Requests["analyze"].Rejected
	st.workerReqs = snap.Requests["analyze"].Total
	return st, nil
}

func (d *httpDoor) parallelism() int { return d.par }

func (d *httpDoor) close() {
	for _, f := range d.closers {
		f()
	}
}
