package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"clara/internal/server"
)

// lightElements are the 18 library elements of the benchmark's
// cluster-light-batch request (bench/workloads.go).
var lightElements = []string{
	"aggcounter", "anonipaddr", "cmsketch_crc", "dnsproxy", "firewall", "forcetcp",
	"ipclassifier", "iprewriter", "mazunat", "tcpack", "tcpgen", "tcpresp",
	"timefilter", "tokenbucket", "udpcount", "udpipencap", "webgen", "webtcp",
}

// replayWorker answers each distinct request body with a real worker's
// reply to it — status, headers and bytes — computed once and replayed
// from then on, so what is timed around it is the hop and not the analysis.
type replayWorker struct {
	real http.Handler
	mu   sync.Mutex
	seen map[string]*httptest.ResponseRecorder
}

func (w *replayWorker) ServeHTTP(rw http.ResponseWriter, r *http.Request) {
	body, _ := io.ReadAll(r.Body)
	w.mu.Lock()
	rec := w.seen[string(body)]
	if rec == nil {
		rec = httptest.NewRecorder()
		w.real.ServeHTTP(rec, httptest.NewRequest(r.Method, r.URL.Path, bytes.NewReader(body)))
		w.seen[string(body)] = rec
	}
	w.mu.Unlock()
	for k, v := range rec.Header() {
		rw.Header()[k] = v
	}
	rw.WriteHeader(rec.Code)
	rw.Write(rec.Body.Bytes()) //nolint:errcheck
}

// BenchmarkCoordinatorHop prices the coordinator's share of one request:
// an 18-job batch through Handler() — decode, resolve, route, two
// sub-batches over loopback HTTP, cut, splice, write — against two workers
// that replay canned replies. The workers go by fixed names, as in bench/,
// so the split (8/10) is the same on every run and every commit.
func BenchmarkCoordinatorHop(b *testing.B) {
	srv, err := server.New(server.Config{Tool: quickTool(b), Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	listeners := map[string]string{}
	var names []string
	for _, name := range []string{"clara-worker-0:80", "clara-worker-1:80"} {
		ts := httptest.NewServer(&replayWorker{real: srv.Handler(), seen: map[string]*httptest.ResponseRecorder{}})
		b.Cleanup(ts.Close)
		listeners[name] = ts.Listener.Addr().String()
		names = append(names, name)
	}
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.DialContext = func(ctx context.Context, network, addr string) (net.Conn, error) {
		return (&net.Dialer{}).DialContext(ctx, network, listeners[addr])
	}
	b.Cleanup(tr.CloseIdleConnections)
	c, err := New(Config{Workers: names, Client: &http.Client{Transport: tr}})
	if err != nil {
		b.Fatal(err)
	}
	blob, err := json.Marshal(server.AnalyzeRequest{NFs: lightElements})
	if err != nil {
		b.Fatal(err)
	}
	post := func() {
		rec := httptest.NewRecorder()
		c.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/v1/analyze", bytes.NewReader(blob)))
		if rec.Code != http.StatusOK || rec.Header().Get(server.FailedJobsHeader) != "" {
			b.Fatalf("status %d, %s %q:\n%.300s", rec.Code, server.FailedJobsHeader, rec.Header().Get(server.FailedJobsHeader), rec.Body.String())
		}
	}
	post() // the workers compute their replies here
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		post()
	}
}
