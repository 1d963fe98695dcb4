package fleet

import (
	"reflect"
	"testing"

	"clara/internal/click"
	"clara/internal/core"
	"clara/internal/traffic"
)

// TestAnalyzeDeterminism is the table-driven determinism check: with the
// workload seed fixed by the Spec and the interpreter's rand32 sequence
// fixed by the interpreter, two Analyze runs must produce byte-identical
// insights — the property the fleet's result-ordering guarantee builds on.
func TestAnalyzeDeterminism(t *testing.T) {
	tool := quickTool(t)
	cases := []struct {
		element string
		wl      traffic.Spec
	}{
		{"iplookup", traffic.MediumMix},    // LPM + placement
		{"aggcounter", traffic.SmallFlows}, // stateful counters
		{"wepdecap", traffic.LargeFlows},   // CRC loop
		{"udpipencap", traffic.MediumMix},  // stateless
		{"mazunat", traffic.SmallFlows},    // multi-map NAT
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.element+"/"+tc.wl.Name, func(t *testing.T) {
			e := click.Get(tc.element)
			if e == nil {
				t.Fatalf("unknown element %q", tc.element)
			}
			mod := e.MustModule()
			ps := core.ProfileSetup{Setup: e.Setup, LPMTable: e.Routes}
			a, err := tool.Analyze(mod, ps, tc.wl)
			if err != nil {
				t.Fatal(err)
			}
			b, err := tool.Analyze(mod, ps, tc.wl)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a, b) {
				t.Errorf("insights differ across runs:\n%+v\nvs\n%+v", a, b)
			}
			if ra, rb := a.Report(), b.Report(); ra != rb {
				t.Errorf("reports differ across runs:\n%s\nvs\n%s", ra, rb)
			}
		})
	}
}

// TestFleetWorkerCountInvariance checks the acceptance criterion that
// the batch output is identical for worker counts 1 and 8: same result
// order, same insight content, byte-identical reports.
func TestFleetWorkerCountInvariance(t *testing.T) {
	tool := quickTool(t)
	jobs := libraryJobs(t)

	run := func(workers int) []Result {
		fl, err := New(tool, Config{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		rs, err := fl.Run(jobs)
		if err != nil {
			t.Fatal(err)
		}
		return rs
	}
	seq := run(1)
	par := run(8)
	if len(seq) != len(par) {
		t.Fatalf("result counts differ: %d vs %d", len(seq), len(par))
	}
	for i := range seq {
		if seq[i].Err != nil || par[i].Err != nil {
			t.Fatalf("job %d failed: seq=%v par=%v", i, seq[i].Err, par[i].Err)
		}
		if seq[i].Name != par[i].Name || seq[i].Workload != par[i].Workload {
			t.Fatalf("job %d identity differs: %s/%s vs %s/%s",
				i, seq[i].Name, seq[i].Workload, par[i].Name, par[i].Workload)
		}
		if !reflect.DeepEqual(seq[i].Insights, par[i].Insights) {
			t.Errorf("job %d insights differ between 1 and 8 workers", i)
		}
		if seq[i].Insights.Report() != par[i].Insights.Report() {
			t.Errorf("job %d reports differ between 1 and 8 workers", i)
		}
	}
}
