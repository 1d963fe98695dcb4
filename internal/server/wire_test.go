package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"clara/internal/click"
	"clara/internal/core"
	"clara/internal/fleet"
	"clara/internal/interp"
)

// rawReply is the analyze reply with each result object left as bytes.
type rawReply struct {
	Results []json.RawMessage `json:"results"`
}

// TestWireSplice pins the reply the server writes without an encoder to
// the one the struct encoder wrote: a result object re-encoded from its
// own decoding through AnalyzeResult is the same bytes, names and error
// texts that need escaping included; its insights member is the stored
// encoding, byte for byte; and a failed or panicked job carries its error
// and no insights.
func TestWireSplice(t *testing.T) {
	const awkward = "we\"ird<&\u2028name"
	const poisoned = awkward + "-poisoned"
	log := recordEncodes(t)
	s := newTestServer(t, Config{JobHook: func(j *fleet.Job) {
		if j.Name == poisoned {
			j.PS = core.ProfileSetup{Setup: func(*interp.Machine) error { panic("poisoned <setup> & \"co\"") }}
		}
	}})
	one := func(req AnalyzeRequest) (json.RawMessage, AnalyzeResult, *httptest.ResponseRecorder) {
		t.Helper()
		rec := postJSON(t, s.Handler(), "/v1/analyze", req)
		var raw rawReply
		if err := json.Unmarshal(rec.Body.Bytes(), &raw); err != nil || rec.Code != http.StatusOK || len(raw.Results) != 1 {
			t.Fatalf("status %d, %v:\n%s", rec.Code, err, rec.Body.String())
		}
		if !bytes.HasSuffix(rec.Body.Bytes(), []byte("]}\n")) || bytes.Count(rec.Body.Bytes(), []byte("\n")) != 1 {
			t.Errorf("reply is not one compact JSON line:\n%q", rec.Body.String())
		}
		cut, err := SplitResults(rec.Body.Bytes(), rec.Header().Get(ResultLengthsHeader))
		if err != nil || len(cut) != 1 || !bytes.Equal(cut[0], raw.Results[0]) {
			t.Errorf("the announced lengths %q cut the reply into %d results, %v; the decoder reads\n%s", rec.Header().Get(ResultLengthsHeader), len(cut), err, raw.Results[0])
		}
		got := decodeAnalyze(t, rec).Results[0]
		again, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, raw.Results[0]) {
			t.Errorf("spliced result differs from the struct encoder's:\nwire   %s\nstruct %s", raw.Results[0], again)
		}
		return raw.Results[0], got, rec
	}
	insightsOf := func(raw json.RawMessage) []byte {
		var m struct {
			Insights json.RawMessage `json:"insights"`
		}
		if err := json.Unmarshal(raw, &m); err != nil {
			t.Fatal(err)
		}
		return m.Insights
	}

	// Three sightings: computed, computed and stored, answered from the store.
	good := AnalyzeRequest{Src: click.Get("tcpack").Src, Name: awkward, Workload: "small"}
	for i := 0; i < 3; i++ {
		raw, got, rec := one(good)
		if got.Name != awkward || got.Workload != "small-flows" || got.Error != "" || got.Insights == nil || got.Insights.NF != awkward {
			t.Fatalf("sighting %d decodes to %+v", i+1, got)
		}
		if got.CacheHit != (i > 0) || got.ResultHit != (i == 2) || bytes.Contains(raw, []byte("result_hit")) != (i == 2) {
			t.Errorf("sighting %d: cache_hit %v, result_hit %v in %s", i+1, got.CacheHit, got.ResultHit, raw[:120])
		}
		if !bytes.Equal(insightsOf(raw), log.last()) {
			t.Errorf("sighting %d: insights member is not the stored encoding", i+1)
		}
		if rec.Header().Get(FailedJobsHeader) != "" {
			t.Errorf("sighting %d: clean job counted as failed", i+1)
		}
	}
	if log.count() != 2 {
		t.Errorf("%d insights encodes over a miss, a stored miss and a hit; want 2", log.count())
	}

	// A job that fails with its (awkward) name in the error text, and one
	// that panics with an awkward panic value.
	oversize := AnalyzeRequest{Src: "global u64 a[150000000]; void handle(){ a[1]=2; pkt_send(0); }", Name: awkward}
	raw, got, rec := one(oversize)
	if !strings.Contains(got.Error, awkward) || got.Panicked || got.Insights != nil || bytes.Contains(raw, []byte(`"insights"`)) {
		t.Errorf("failed job: %+v\n%s", got, raw)
	}
	if rec.Header().Get(FailedJobsHeader) != "1" {
		t.Errorf("failed job: %s = %q", FailedJobsHeader, rec.Header().Get(FailedJobsHeader))
	}
	good.Name = poisoned
	raw, got, rec = one(good)
	if !strings.Contains(got.Error, `poisoned <setup> & "co"`) || !got.Panicked || got.Insights != nil || bytes.Contains(raw, []byte(`"insights"`)) {
		t.Errorf("panicked job: %+v\n%s", got, raw)
	}
	if rec.Header().Get(FailedJobsHeader) != "1" {
		t.Errorf("panicked job: %s = %q", FailedJobsHeader, rec.Header().Get(FailedJobsHeader))
	}
	if log.count() != 2 {
		t.Errorf("a failed job reached the insights encoder (%d encodes)", log.count())
	}
}

// warmAnalyzeAllocs bounds what one warm single-job /v1/analyze may
// allocate, request construction and recorder included: measured 43 on
// go1.24 (45 under -race). The encoder pools its buffers, so re-encoding
// the insights would add one or two — which is why the test counts
// encoder calls as well, and exactly.
const warmAnalyzeAllocs = 60

// TestWarmAnalyzeNoEncode pins the hit path the way TestProfileLoopZeroAllocs
// pins the profile loop: a repeated single-job request is answered from
// the result store without calling the insights encoder and within a
// stated allocation count, so a change that re-encodes on the hit path
// fails here and not in a benchmark.
func TestWarmAnalyzeNoEncode(t *testing.T) {
	log := recordEncodes(t)
	s := newTestServer(t, Config{})
	h := s.Handler()
	body := []byte(`{"nf":"mazunat","workload":"mix"}`)
	post := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/analyze", bytes.NewReader(body)))
		return rec
	}
	var want []byte
	for i := 0; i < 3; i++ {
		rec := post()
		if rec.Code != http.StatusOK {
			t.Fatalf("warm-up %d: %d %s", i, rec.Code, rec.Body.String())
		}
		want = log.last()
	}
	before := log.count()
	allocs := testing.AllocsPerRun(200, func() {
		rec := post()
		if rec.Code != http.StatusOK || !bytes.Contains(rec.Body.Bytes(), want) || !bytes.Contains(rec.Body.Bytes(), []byte(`"result_hit":true`)) {
			t.Fatalf("warm request: %d, not a result hit carrying the stored insights:\n%.300s", rec.Code, rec.Body.String())
		}
	})
	if n := log.count() - before; n != 0 {
		t.Errorf("%d insights encodes during warm requests, want 0", n)
	}
	if allocs > warmAnalyzeAllocs {
		t.Errorf("a warm /v1/analyze allocates %.0f times, want at most %d", allocs, warmAnalyzeAllocs)
	}
	t.Logf("warm /v1/analyze: %.0f allocations", allocs)
}
