package server

import (
	"bytes"
	"encoding/json"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"clara/internal/click"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/metrics_wire.golden from this run")

// Only what timing or other tests decide is normalised: histogram moments,
// uptime, bucket counts (their length stays pinned), and the process-wide
// program and trace stores, which every test in the process feeds.
var (
	wireMoments  = regexp.MustCompile(`"(min_ms|mean_ms|max_ms|uptime_seconds)":-?[0-9][0-9.eE+-]*`)
	wireCounts   = regexp.MustCompile(`"counts":\[[0-9,]*\]`)
	wireDigits   = regexp.MustCompile(`[0-9]+`)
	wireProcess  = regexp.MustCompile(`"(program|trace)":\{[^}]*\}`)
	wireRequests = []struct {
		path string
		body any
		want int
	}{
		{"/v1/analyze", AnalyzeRequest{Src: click.Get("aggcounter").Src, Name: "agg"}, http.StatusOK},
		{"/v1/analyze", AnalyzeRequest{Src: click.Get("aggcounter").Src, Name: "agg"}, http.StatusOK},
		{"/v1/analyze", AnalyzeRequest{Src: click.Get("aggcounter").Src, Name: "agg"}, http.StatusOK},
		{"/v1/analyze", AnalyzeRequest{NFs: []string{"tcpack", "udpcount"}}, http.StatusOK},
		{"/v1/analyze", AnalyzeRequest{NF: "no-such-element"}, http.StatusBadRequest},
		{"/v1/lint", LintRequest{NF: "tcpack"}, http.StatusOK},
		{"/v1/elements", nil, http.StatusOK},
	}
)

func normaliseWire(b []byte) []byte {
	b = wireMoments.ReplaceAll(b, []byte(`"$1":_`))
	b = wireCounts.ReplaceAllFunc(b, func(m []byte) []byte { return wireDigits.ReplaceAll(m, []byte("_")) })
	return wireProcess.ReplaceAll(b, []byte(`"$1":{_}`))
}

// TestMetricsWireGolden pins the /metrics schema byte for byte — member
// names, member order, which histograms exist and what every counter
// reads — after a fixed mix of requests, and the coordinator's merged view
// of two snapshots of that server, in testdata/metrics_wire.golden (run
// with -update to rewrite it).
func TestMetricsWireGolden(t *testing.T) {
	s := newTestServer(t, Config{})
	for i, r := range wireRequests {
		var rec *httptest.ResponseRecorder
		if r.body == nil {
			rec = httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", r.path, nil))
		} else {
			rec = postJSON(t, s.Handler(), r.path, r.body)
		}
		if rec.Code != r.want {
			t.Fatalf("request %d %s: status %d, want %d:\n%s", i, r.path, rec.Code, r.want, rec.Body.String())
		}
	}
	var raw [2][]byte
	var snaps [2]MetricsSnapshot
	for i := range raw {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
		raw[i] = rec.Body.Bytes()
		if err := json.Unmarshal(raw[i], &snaps[i]); err != nil {
			t.Fatalf("metrics not JSON: %v\n%s", err, raw[i])
		}
	}
	merged := httptest.NewRecorder()
	WriteJSON(merged, http.StatusOK, MergeSnapshots(snaps[:]))
	got := append(normaliseWire(raw[0]), normaliseWire(merged.Body.Bytes())...)

	path := filepath.Join("testdata", "metrics_wire.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `make update-golden` to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("/metrics wire form moved (run `make update-golden` if intended):\n got: %s\nwant: %s", got, want)
	}
}
