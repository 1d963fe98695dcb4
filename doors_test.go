package clara

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"clara/internal/server"
)

// TestDoorsAgree holds Clara's front doors to being one function: the same
// NF and workload give byte-identical Insights through Tool.Analyze,
// Fleet.Run, a server and a two-worker coordinator — cold, and again warm,
// when the doors that name their setups answer from their result stores; a
// bad request gets the same status and the same words from the server and
// the coordinator; and a worker's per-job failure survives the
// coordinator's splice — counted in the header, in its place in the batch,
// decodable by a client.
func TestDoorsAgree(t *testing.T) {
	tool := quickTestTool(t)
	const poisoned = "timefilter"
	hook := func(j *FleetJob) {
		if j.Name == poisoned {
			j.PS = ProfileSetup{Setup: func(*Machine) error { panic("poisoned element") }}
		}
	}
	serve := func() *httptest.Server {
		srv, err := NewServer(ServerConfig{Tool: tool, Workers: 2, JobHook: hook})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		return ts
	}
	srv, w1, w2 := serve(), serve(), serve()
	coord, err := NewCoordinator(ClusterConfig{Workers: []string{w1.URL, w2.URL}})
	if err != nil {
		t.Fatal(err)
	}
	cts := httptest.NewServer(coord.Handler())
	t.Cleanup(cts.Close)
	fl, err := NewFleet(tool, FleetConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	doors := []struct{ name, url string }{{"server", srv.URL}, {"coordinator", cts.URL}}

	post := func(url, body string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Post(url+"/v1/analyze", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return resp, buf.Bytes()
	}
	canonical := func(ins *Insights) string {
		b, err := json.Marshal(ins)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	// Between them these have every kind of state: none, arrays, maps, LPM
	// routes. The last job is the first one's source, submitted unnamed.
	names := []string{"tcpack", "mazunat", "cmsketch", "iplookup", "firewall", "dnsproxy"}
	workloads := map[string]Workload{"small": SmallFlows, "large": LargeFlows, "mix": MediumMix}
	// Two passes over the same doors. In the first, only a module's second
	// and third workloads are admitted to the result stores; the second is
	// answered from them (the library jobs through the HTTP doors, the
	// setup-less source job through every door).
	// The fleet's jobs are built by hand below, without a setup identity:
	// only those with no setup to identify (and the submitted source) are
	// memoised there.
	bare := 1
	for _, n := range names {
		if e := GetElement(n); e.Setup == nil && e.Routes == nil {
			bare++
		}
	}
	resultHits := map[string]int{}
	for pass := 0; pass < 2; pass++ {
		for wlName, wl := range workloads {
			var jobs []FleetJob
			for _, n := range names {
				e := GetElement(n)
				jobs = append(jobs, FleetJob{Name: n, Mod: e.MustModule(), PS: ProfileSetup{Setup: e.Setup, LPMTable: e.Routes}, WL: wl})
			}
			src := GetElement(names[0]).Src
			mod, err := CompileNF("submitted", src)
			if err != nil {
				t.Fatal(err)
			}
			jobs = append(jobs, FleetJob{Name: "submitted", Mod: mod, WL: wl})

			want := make([]string, len(jobs))
			for i, j := range jobs {
				ins, err := tool.Analyze(j.Mod, j.PS, j.WL)
				if err != nil {
					t.Fatalf("%s/%s: %v", j.Name, wlName, err)
				}
				want[i] = canonical(ins)
			}
			res, err := fl.Run(jobs)
			if err != nil {
				t.Fatal(err)
			}
			for i, r := range res {
				if r.Err != nil || canonical(r.Insights) != want[i] {
					t.Errorf("pass %d: fleet %s/%s differs from Tool.Analyze (err %v)", pass, r.Name, wlName, r.Err)
				}
				if r.ResultHit {
					resultHits["fleet"]++
				}
			}
			batch, _ := json.Marshal(server.AnalyzeRequest{NFs: names, Workload: wlName})
			single, _ := json.Marshal(server.AnalyzeRequest{Src: src, Workload: wlName})
			for _, d := range doors {
				var got []server.AnalyzeResult
				for _, body := range [][]byte{batch, single} {
					resp, out := post(d.url, string(body))
					var ar server.AnalyzeResponse
					if err := json.Unmarshal(out, &ar); err != nil || resp.StatusCode != http.StatusOK {
						t.Fatalf("%s %s: %d %v\n%.300s", d.name, wlName, resp.StatusCode, err, out)
					}
					got = append(got, ar.Results...)
				}
				if len(got) != len(jobs) {
					t.Fatalf("%s %s: %d results for %d jobs", d.name, wlName, len(got), len(jobs))
				}
				for i, r := range got {
					if r.Name != jobs[i].Name || r.Error != "" || r.Insights == nil || canonical(r.Insights) != want[i] {
						t.Errorf("pass %d: %s %s/%s differs from Tool.Analyze (name %q, error %q)", pass, d.name, jobs[i].Name, wlName, r.Name, r.Error)
					}
					if r.ResultHit {
						resultHits[d.name]++
					}
				}
			}
		}
		// A module's first workload of the first pass is its first sighting,
		// computed and not kept; so the second pass has one stored miss and
		// two hits per module, whatever order the workloads came in.
		want := map[string]int{"fleet": 0, "server": 0, "coordinator": 0}
		if pass == 1 {
			want = map[string]int{"fleet": 2 * bare, "server": 2 * (len(names) + 1), "coordinator": 2 * (len(names) + 1)}
		}
		for door, n := range want {
			if resultHits[door] != n {
				t.Errorf("pass %d: %d result hits through the %s door, want %d", pass, resultHits[door], door, n)
			}
		}
	}

	for what, body := range map[string]string{
		"no selector":      `{}`,
		"two selectors":    `{"nf":"tcpack","src":"void handle() {}"}`,
		"unknown element":  `{"nf":"nosuch"}`,
		"bad source":       `{"src":"not nfc ("}`,
		"unknown workload": `{"nf":"tcpack","workload":"insane"}`,
		"unknown field":    `{"nf":"tcpack","bogus":1}`,
		"trailing garbage": `{"nf":"tcpack"} trailing`,
		"second value":     `{"nf":"tcpack"}{"nf":"nosuch"}`,
		"negative timeout": `{"nf":"tcpack","timeout_ms":-5}`,
	} {
		sresp, sout := post(srv.URL, body)
		cresp, cout := post(cts.URL, body)
		if sresp.StatusCode != http.StatusBadRequest || !bytes.Contains(sout, []byte(`"error":`)) {
			t.Errorf("%s: server answered %d %s", what, sresp.StatusCode, sout)
		}
		if cresp.StatusCode != sresp.StatusCode || !bytes.Equal(cout, sout) {
			t.Errorf("%s: coordinator answered %d %s, server %d %s", what, cresp.StatusCode, cout, sresp.StatusCode, sout)
		}
	}

	mixed := []string{"tcpack", poisoned, "forcetcp"}
	body, _ := json.Marshal(server.AnalyzeRequest{NFs: mixed})
	resp, out := post(cts.URL, string(body))
	if resp.StatusCode != http.StatusOK || resp.Header.Get(server.FailedJobsHeader) != "1" {
		t.Fatalf("poisoned batch: %d, %s=%q\n%.300s", resp.StatusCode, server.FailedJobsHeader, resp.Header.Get(server.FailedJobsHeader), out)
	}
	var ar server.AnalyzeResponse
	if err := json.Unmarshal(out, &ar); err != nil || len(ar.Results) != len(mixed) {
		t.Fatalf("poisoned batch does not decode: %v\n%.300s", err, out)
	}
	for i, r := range ar.Results {
		if bad := mixed[i] == poisoned; r.Name != mixed[i] || bad != r.Panicked || bad != (r.Error != "") || bad == (r.Insights != nil) {
			t.Errorf("poisoned batch result %d: %+v", i, r)
		}
	}
}
