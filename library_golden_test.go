package clara

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/library_insights.golden from this run")

// TestLibraryInsightsGolden pins what the served tool answers: the quick
// tool, trained as `clara -quick` and the benchmark train it, runs the
// 51-job library batch through a Fleet, and each job's Insights, as compact
// JSON, must hash to its line of testdata/library_insights.golden. A change
// that moves any prediction, placement, pack, core count, diagnostic or
// state profile of a library element fails here, naming the job.
func TestLibraryInsightsGolden(t *testing.T) {
	tool := quickTestTool(t)
	jobs, err := LibraryJobs(SmallFlows, LargeFlows, MediumMix)
	if err != nil {
		t.Fatal(err)
	}
	fl, err := NewFleet(tool, FleetConfig{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := fl.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, r := range res {
		if r.Err != nil {
			t.Fatalf("%s/%s: %v", r.Name, r.Workload, r.Err)
		}
		js, err := json.Marshal(r.Insights)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, fmt.Sprintf("%s %s %x", r.Name, r.Workload, sha256.Sum256(js)))
	}

	path := filepath.Join("testdata", "library_insights.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(want) != len(got) {
		t.Fatalf("%d jobs, golden has %d lines", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("job %d:\n got %s\nwant %s", i, got[i], want[i])
		}
	}
}
