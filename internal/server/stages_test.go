package server

import (
	"net/http"
	"testing"

	"clara/internal/core"
)

// TestStageClockCoversElapsed sends one cold library job through a fresh
// server and reads its stage clock back from /metrics: the job's stages
// must explain 90–100 % of its Elapsed (the rest is bookkeeping between
// stages), every stage the job ran must be counted once and no other, and
// the request's server stages must be there beside them.
func TestStageClockCoversElapsed(t *testing.T) {
	s := newTestServer(t, Config{})
	if rec := postJSON(t, s.Handler(), "/v1/analyze", AnalyzeRequest{NF: "mazunat", Workload: "mix"}); rec.Code != http.StatusOK {
		t.Fatalf("analyze: %d %s", rec.Code, rec.Body.String())
	}
	snap := metricsSnap(t, s.Handler())
	elapsed := snap.Fleet.Analyses
	if elapsed.N != 1 {
		t.Fatalf("%d analyses recorded, want 1", elapsed.N)
	}
	ran := map[core.Stage]bool{
		core.StageFingerprint: true, core.StagePredict: true, core.StageAnalyze: true,
		core.StageAlgoID: true, core.StageCompile: true, core.StageProfile: true,
		core.StagePlacement: true, core.StagePacks: true, core.StageScaleout: true,
		core.StageDecode: true, core.StageResolve: true, core.StageEncode: true,
	}
	var sum float64
	for st := core.Stage(0); st < core.NStages; st++ {
		h, ok := snap.Stages[st.String()]
		if !ok {
			t.Errorf("/metrics has no %s stage", st)
			continue
		}
		want := int64(0)
		if ran[st] {
			want = 1
		}
		if h.N != want {
			t.Errorf("stage %s counted %d times, want %d", st, h.N, want)
		}
		if st < core.NJobStages {
			sum += h.MeanMs * float64(h.N)
		}
	}
	r := sum / elapsed.MeanMs
	t.Logf("job stages %.3f ms of %.3f ms elapsed (%.1f%%)", sum, elapsed.MeanMs, 100*r)
	if r < 0.90 || r > 1.00 {
		t.Errorf("job stages sum to %.3f ms, %.1f%% of the job's %.3f ms elapsed; want 90–100%%",
			sum, 100*r, elapsed.MeanMs)
	}

	m := MergeSnapshots([]MetricsSnapshot{snap, snap})
	if h := m.Stages[core.StageProfile.String()]; h.N != 2 || h.MeanMs != snap.Stages["profile"].MeanMs {
		t.Errorf("merged profile stage: %+v", h)
	}
}
