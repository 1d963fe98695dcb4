package server_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"clara/internal/cluster"
	"clara/internal/server"
)

// hopAllocs bounds what one 18-job request through the coordinator may
// allocate, request resolution, both stub workers' HTTP serving and the
// recorder included: measured 317 on go1.24 (355 under -race). The cut
// adds one slice of sub-slices per reply; the scan count below, not this
// ceiling, is what holds it to one pass.
const hopAllocs = 370

// TestHopOneScan holds the coordinator hop to its price: over two stub
// workers replaying canned replies, every result the coordinator forwards
// was checked exactly once on the way through, each distinct insights value
// was scanned on the first two requests (the second keeps it) and never
// again, every result arrives byte for byte as its worker wrote it, and the
// request stays inside a stated allocation count.
func TestHopOneScan(t *testing.T) {
	names := server.LightElements
	canned := make(map[string][]byte, len(names))
	for _, n := range names {
		canned[n] = []byte(fmt.Sprintf(`{"name":%q,"workload":"mix","elapsed_ms":0.01,"cache_hit":true,"result_hit":true,"insights":{"nf":%q,"notes":["]}\n","<&>","%s"]}}`,
			n, n, strings.Repeat("x", 2000)))
	}
	// A stub worker answers a sub-batch with its elements' canned results,
	// and from the second time on replays the reply it wrote the first time.
	type reply struct {
		header http.Header
		body   []byte
	}
	stub := func() string {
		replies := map[string]reply{} // by request body; one request at a time per worker
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			var buf bytes.Buffer
			buf.ReadFrom(r.Body) //nolint:errcheck
			rep, ok := replies[buf.String()]
			if !ok {
				var req server.AnalyzeRequest
				if err := json.Unmarshal(buf.Bytes(), &req); err != nil {
					t.Error(err)
				}
				var rs [][]byte
				for _, n := range req.NFs {
					rs = append(rs, canned[n])
				}
				rec := httptest.NewRecorder()
				server.WriteResults(rec, rs)
				rep = reply{rec.Header(), rec.Body.Bytes()}
				replies[buf.String()] = rep
			}
			for k, v := range rep.header {
				w.Header()[k] = v
			}
			w.Write(rep.body) //nolint:errcheck
		}))
		t.Cleanup(ts.Close)
		return ts.URL
	}
	c, err := cluster.New(cluster.Config{Workers: []string{stub(), stub()}})
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(server.AnalyzeRequest{NFs: names})
	if err != nil {
		t.Fatal(err)
	}
	post := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		c.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/v1/analyze", bytes.NewReader(body)))
		return rec
	}

	scans := server.CountResultScans(t)
	insightsScans := server.CountInsightsScans(t)
	rec := post()
	if rec.Code != http.StatusOK || rec.Header().Get(server.FailedJobsHeader) != "" {
		t.Fatalf("status %d, %s %q:\n%.300s", rec.Code, server.FailedJobsHeader, rec.Header().Get(server.FailedJobsHeader), rec.Body.String())
	}
	if got := scans.Load(); got != int64(len(names)) {
		t.Errorf("%d result scans for %d results, want one each", got, len(names))
	}
	if got := insightsScans.Load(); got != int64(len(names)) {
		t.Errorf("%d insights scans for %d distinct values, want one each", got, len(names))
	}
	// The coordinator's own reply goes out through the same writer, so the
	// same cut reads it: the workers' bytes, in request order.
	got, err := server.SplitResults(rec.Body.Bytes(), rec.Header().Get(server.ResultLengthsHeader))
	if err != nil || len(got) != len(names) {
		t.Fatalf("coordinator reply splits into %d results, %v", len(got), err)
	}
	for i, n := range names {
		if !bytes.Equal(got[i], canned[n]) {
			t.Errorf("result %d is not %s's bytes as its worker wrote them:\n%.120s", i, n, got[i])
		}
	}

	// The second sighting of each value is scanned again, and keeps it.
	if rec := post(); rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if got := insightsScans.Load(); got != int64(2*len(names)) {
		t.Errorf("%d insights scans over two requests for %d distinct values, want two each", got, len(names))
	}

	before := scans.Load()
	const runs = 50
	allocs := testing.AllocsPerRun(runs, func() {
		if rec := post(); rec.Code != http.StatusOK {
			t.Fatalf("status %d", rec.Code)
		}
	})
	if got, want := scans.Load()-before, int64((runs+1)*len(names)); got != want {
		t.Errorf("%d result scans over %d requests, want %d", got, runs+1, want)
	}
	if got := insightsScans.Load() - int64(2*len(names)); got != 0 {
		t.Errorf("%d insights scans over %d repeated requests, want none: every value was known", got, runs+1)
	}
	if allocs > hopAllocs {
		t.Errorf("an 18-job request through the coordinator allocates %.0f times, want at most %d", allocs, hopAllocs)
	}
	t.Logf("18-job coordinator request: %.0f allocations", allocs)
}
