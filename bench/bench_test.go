package main

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
)

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	var spec benchSpec
	if err := readJSON(specPath, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestSmoke runs every workload of BENCHMARK.json briefly, untraced and
// traced, and holds the output to the file: same workloads, same metric
// names and units, nothing failed, spans that nest.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all four workloads")
	}
	spec := loadSpec(t)
	var names []string
	for _, w := range workloads() {
		names = append(names, w.name)
	}
	var specNames []string
	for _, w := range spec.Workloads {
		specNames = append(specNames, w.Name)
	}
	if !reflect.DeepEqual(names, specNames) {
		t.Fatalf("workloads %v, BENCHMARK.json has %v", names, specNames)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for _, name := range names {
		for _, trace := range []bool{false, true} {
			rec, err := runWorkload(runConfig{workload: name, seed: 3, seconds: 0.3, trace: trace, setupReps: 1})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !rec.Correct || rec.Failed != 0 || rec.Jobs == 0 {
				t.Errorf("%s trace=%v: correct=%v failed=%d jobs=%d: %v", name, trace, rec.Correct, rec.Failed, rec.Jobs, rec.Failures)
			}
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			for _, m := range want {
				got, ok := rec.Metrics[m.Name]
				if !ok {
					t.Errorf("%s trace=%v: %s is in BENCHMARK.json and was not measured", name, trace, m.Name)
				} else if got.Unit != m.Unit {
					t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", name, m.Name, got.Unit, m.Unit)
				}
				if !nameRE.MatchString(m.Name) {
					t.Errorf("metric name %q", m.Name)
				}
			}
			if len(rec.Metrics) != len(want) {
				t.Errorf("%s trace=%v: measured %d metrics, BENCHMARK.json names %d", name, trace, len(rec.Metrics), len(want))
			}
			if !trace {
				for k, m := range rec.Metrics {
					if m.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v", name, k, m.Value)
					}
				}
				continue
			}
			checkSpans(t, name, rec.Spans)
			if rec.Digests["insights_digest"] == "" || rec.Digests["model_hash"] == "" {
				t.Errorf("%s: digests %v", name, rec.Digests)
			}
			if name == "repeat-zipf" {
				for _, k := range []string{"lang.compile_us", "ir.fingerprint_us", "core.predict_us", "interp.compile_us"} {
					if v := rec.Metrics[k].Value; v != 0 {
						t.Errorf("repeat-zipf is all cache hits, yet %s = %v", k, v)
					}
				}
			}
			if name == "unique-src" && rec.Metrics["fleet.cache_hit_ratio"].Value != 0 {
				t.Errorf("unique-src hit the prediction cache: %v", rec.Metrics["fleet.cache_hit_ratio"])
			}

			var buf bytes.Buffer
			if err := finish(&buf, rec); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
			var last map[string]json.RawMessage
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatalf("last line is not a JSON object: %v", err)
			}
			var keys []string
			for k := range last {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			if !reflect.DeepEqual(keys, []string{"attempted", "correct", "failed", "metrics"}) {
				t.Errorf("result object has keys %v", keys)
			}
		}
	}
}

func checkSpans(t *testing.T, workload string, spans []span) {
	t.Helper()
	if len(spans) == 0 {
		t.Fatalf("%s: no spans", workload)
	}
	for i, s := range spans {
		if s.ID != i || s.EndNS < s.StartNS {
			t.Fatalf("%s: span %+v at index %d", workload, s, i)
		}
		if s.Parent >= 0 {
			p := spans[s.Parent]
			if s.Parent >= s.ID || s.StartNS < p.StartNS || s.EndNS > p.EndNS {
				t.Errorf("%s: span %+v is not inside its parent %+v", workload, s, p)
			}
		}
	}
	for id, self := range selfTimes(spans) {
		if self < 0 {
			t.Errorf("%s: span %+v has self time %d", workload, spans[id], self)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{0, -1, "pipeline.job", 0, 0, 0, 100},
		{1, 0, "a", 0, 0, 10, 40},
		{2, 0, "b", 0, 0, 30, 60}, // overlaps a: the union 10..60 is covered once
		{3, 1, "c", 0, 0, 10, 20},
	}
	if got := selfTimes(spans); !reflect.DeepEqual(got, []int64{50, 20, 30, 10}) {
		t.Errorf("self times %v", got)
	}
}

func TestTailRule(t *testing.T) {
	for n, want := range map[int]float64{10: 50, 99: 50, 100: 90, 999: 90, 1000: 99, 30000: 99} {
		if got := tailPercentile(n); got != want {
			t.Errorf("tail percentile of %d samples: p%v, want p%v", n, got, want)
		}
	}
	s := make([]float64, 1000)
	for i := range s {
		s[i] = float64(i + 1)
	}
	// p99 of 1..1000 is 990: exactly ten samples lie beyond it.
	for p, want := range map[float64]float64{50: 500, 90: 900, 99: 990, 100: 1000} {
		if got := percentile(s, p); got != want {
			t.Errorf("p%v of 1..1000 = %v, want %v", p, got, want)
		}
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("p99 of one sample = %v", got)
	}
}

func TestGeneratorsAreSeeded(t *testing.T) {
	counts := zipfCounts(zipfKeys(), zipfS, zipfBlock)
	total := 0
	for k, c := range counts {
		total += c
		if c < 1 || (k > 0 && c > counts[k-1]) {
			t.Errorf("zipf count of rank %d is %d (rank %d has %d)", k+1, c, k, counts[max(k-1, 0)])
		}
	}
	if total != zipfBlock {
		t.Errorf("zipf counts sum to %d, want %d", total, zipfBlock)
	}
	seq := func(seed int64, n int) []int {
		z := &blockShuffle{seed: seed, items: zipfItems()}
		out := make([]int, n)
		for i := range out {
			_, out[i] = z.at(i)
		}
		return out
	}
	a, b, c := seq(5, 3*zipfBlock), seq(5, 3*zipfBlock), seq(6, 3*zipfBlock)
	if !reflect.DeepEqual(a, b) {
		t.Error("zipf sequence differs between two runs of one seed")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("zipf sequence does not depend on the seed")
	}
	// Every block holds the same keys whatever the seed: only the order moves.
	for blk := 0; blk < 3; blk++ {
		x := append([]int(nil), a[blk*zipfBlock:(blk+1)*zipfBlock]...)
		y := append([]int(nil), c[blk*zipfBlock:(blk+1)*zipfBlock]...)
		sort.Ints(x)
		sort.Ints(y)
		if !reflect.DeepEqual(x, y) {
			t.Errorf("block %d holds different keys under seeds 5 and 6", blk)
		}
	}

	// unique-src: one seed, one sequence; another seed, the same programs of
	// each block in another order; never the same program twice.
	names := func(seed int64) []string {
		g, err := uniqueSrc(seed)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{}
		var out []string
		for i := -3; i < 2*uniqueBlock; i++ {
			req, _ := g(i)
			if seen[req.Src] {
				t.Fatalf("unique-src seed %d op %d repeats a program", seed, i)
			}
			seen[req.Src] = true
			out = append(out, req.Name+"/"+req.Workload)
		}
		return out
	}
	u1, u2, u3 := names(5), names(5), names(6)
	if !reflect.DeepEqual(u1, u2) {
		t.Error("unique-src sequence differs between two runs of one seed")
	}
	if reflect.DeepEqual(u1, u3) {
		t.Error("unique-src sequence does not depend on the seed")
	}
	sort.Strings(u1)
	sort.Strings(u3)
	if !reflect.DeepEqual(u1, u3) {
		t.Error("unique-src submits different programs under seeds 5 and 6")
	}

	req, js := lightBatch(5)(4)
	again, _ := lightBatch(5)(4)
	if !reflect.DeepEqual(req, again) || len(js) != len(lightSet) {
		t.Error("cluster-light-batch request differs between two runs of one seed")
	}
	got := append([]string(nil), req.NFs...)
	sort.Strings(got)
	if !reflect.DeepEqual(got, lightSet) { // lightSet is sorted
		t.Errorf("cluster-light-batch requests %v", got)
	}
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	spec := benchSpec{
		Workloads: []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		}{{Name: "w"}},
		EndToEnd: []specMetric{{"jobs_per_s", "jobs/s", "higher", 0.05}, {"op_p50_ms", "ms", "lower", 0.05}},
	}
	suiteOf := func(jobs, p50 []float64, digest string, evictions float64) suite {
		sw := suiteWorkload{Name: "w", Trace: &record{Correct: true, Jobs: 100,
			Metrics: map[string]metric{"fleet.cache_evictions": {Value: evictions}},
			Digests: map[string]string{"insights_digest": digest}}}
		for i := range jobs {
			sw.E2E = append(sw.E2E, &record{Correct: true, Metrics: map[string]metric{
				"jobs_per_s": {Value: jobs[i]}, "op_p50_ms": {Value: p50[i]}}})
		}
		return suite{Workloads: []suiteWorkload{sw}}
	}
	write := func(name string, v any) string {
		path := filepath.Join(dir, name)
		if err := writeJSON(path, v); err != nil {
			t.Fatal(err)
		}
		return path
	}
	specFile := write("spec.json", spec)
	steady := []float64{100, 101, 100, 99, 100}
	base := write("base.json", suiteOf(steady, []float64{10, 10, 10, 10, 10}, "d", 7))
	for _, tc := range []struct {
		name    string
		other   suite
		bad     bool
		row     string // a substring of the jobs_per_s row
		mention string
	}{
		{"same", suiteOf(steady, []float64{10, 10, 10, 10, 10}, "d", 7), false, "ok", ""},
		{"within bound", suiteOf([]float64{97, 98, 97, 96, 97}, []float64{10, 10, 10, 10, 10}, "d", 7), false, "ok", ""},
		{"slower", suiteOf([]float64{90, 91, 90, 89, 90}, []float64{10, 10, 10, 10, 10}, "d", 7), true, "worse", ""},
		{"noisy", suiteOf([]float64{80, 120, 100, 90, 110}, []float64{10, 10, 10, 10, 10}, "d", 7), false, "unresolved", ""},
		{"noisy but every run faster", suiteOf([]float64{150, 190, 170, 160, 180}, []float64{10, 10, 10, 10, 10}, "d", 7), false, "ok", ""},
		{"digest moved", suiteOf(steady, []float64{10, 10, 10, 10, 10}, "e", 7), true, "ok", "insights_digest differs"},
		{"counter moved", suiteOf(steady, []float64{10, 10, 10, 10, 10}, "d", 8), true, "ok", "fleet.cache_evictions differs"},
	} {
		var out bytes.Buffer
		bad, err := compareFiles(&out, specFile, base, write("other.json", tc.other))
		if err != nil {
			t.Fatal(err)
		}
		var row string
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.Contains(line, "jobs_per_s") {
				row = line
			}
		}
		if bad != tc.bad || !strings.Contains(row, tc.row) || !strings.Contains(out.String(), tc.mention) {
			t.Errorf("%s: bad=%v, want %v with %q and %q:\n%s", tc.name, bad, tc.bad, tc.row, tc.mention, out.String())
		}
	}
}
