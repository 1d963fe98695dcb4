package core

import "time"

// Stage is one step of the stage clock: a fixed enum of where an analysis
// job's time goes, and of the serving work around it. Per-job stages are
// filled by the job's own path — the request resolver (lower), the fleet
// (fingerprint, predict, result_lookup), Clara.Facts (analyze, algoid) and
// Clara.AnalyzeWorkloadContext (compile through scaleout). Server stages
// time the work a request does outside its jobs.
type Stage uint8

// Per-job stages, then server stages.
const (
	StageLower        Stage = iota // NFC source → IR
	StageFingerprint               // ir.Fingerprint
	StageAnalyze                   // analysis.Analyze: lint and state profile
	StageAlgoID                    // §4.1 algorithm identification
	StagePredict                   // §3 prediction, or its store lookup
	StageResultLookup              // a result-store hit
	StageCompile                   // interpreter compile and lowering
	StageProfile                   // host profile: the packet loop
	StagePlacement                 // §4.3 placement ILP
	StagePacks                     // §4.4 coalescing packs
	StageScaleout                  // §4.2 scale-out model
	StageDecode                    // server: request body → request
	StageResolve                   // server: request → jobs, less their lowering
	StageEncode                    // server: results → reply bytes
	NStages
)

// NJobStages is how many stages belong to a job: the first NJobStages of
// the enum.
const NJobStages = StageDecode

var stageNames = [NStages]string{
	"lower", "fingerprint", "analyze", "algoid", "predict", "result_lookup",
	"compile", "profile", "placement", "packs", "scaleout",
	"decode", "resolve", "encode",
}

func (s Stage) String() string { return stageNames[s] }

// Stages is time by stage: a job's, or a request's server stages.
type Stages [NStages]time.Duration

// Total sums every stage.
func (st *Stages) Total() time.Duration {
	var t time.Duration
	for _, d := range st {
		t += d
	}
	return t
}

// Add adds every stage of o into st.
func (st *Stages) Add(o *Stages) {
	for i, d := range o {
		st[i] += d
	}
}

// Clock attributes elapsed wall time to stages. It reads the clock once
// when started and then only at stage boundaries, and a boundary reads
// the monotonic clock alone (time.Since of the start), so timing a stage
// costs one cheap read whatever runs inside it. A Clock over nil Stages
// records nothing and reads nothing after its start.
type Clock struct {
	st    *Stages
	start time.Time
	last  time.Duration // since start, at the last boundary
}

// StartClock starts attributing time to st (nil: to nothing) from now.
func StartClock(st *Stages) Clock {
	return Clock{st: st, start: time.Now()} //claravet:allow stage clock: feeds Stages, never an analysis result
}

// Lap charges the time since the last boundary to s.
func (c *Clock) Lap(s Stage) {
	if c.st == nil {
		return
	}
	now := time.Since(c.start)
	c.st[s] += now - c.last
	c.last = now
}

// Skip moves the boundary to now without charging anything: the time
// since the last one belongs to no stage, or was charged elsewhere.
func (c *Clock) Skip() {
	if c.st != nil {
		c.last = time.Since(c.start)
	}
}

// Elapsed is the wall time since the clock started.
func (c *Clock) Elapsed() time.Duration { return time.Since(c.start) }
