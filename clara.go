// Package clara is the public API of the Clara reproduction: automated
// SmartNIC offloading insights for network functions (SOSP 2021).
//
// The package re-exports the pieces a user composes:
//
//   - CompileNF turns NFC source (a Click-style element) into analyzable IR;
//   - Train builds the Clara tool — the instruction predictor (§3), the
//     accelerator-algorithm identifier (§4.1), and the scale-out cost
//     model (§4.2) — against the simulated SmartNIC;
//   - Tool.Analyze produces the offloading insights for an unported NF and
//     a workload;
//   - the nicsim/traffic aliases let users port, place, pack, and simulate
//     NFs directly (the "hardware" side of the evaluation).
//
// See examples/ for runnable end-to-end scenarios and internal/experiments
// for the harnesses regenerating every table and figure of the paper.
package clara

import (
	"context"
	"fmt"
	"time"

	"clara/internal/analysis"
	"clara/internal/click"
	"clara/internal/cluster"
	"clara/internal/core"
	"clara/internal/fleet"
	"clara/internal/interp"
	"clara/internal/ir"
	"clara/internal/isa"
	"clara/internal/lang"
	"clara/internal/niccc"
	"clara/internal/nicsim"
	"clara/internal/server"
	"clara/internal/traffic"
)

// Re-exported core types. The aliases are the supported public surface;
// internal packages remain free to evolve behind them.
type (
	// Module is a lowered NF element (the unit of analysis).
	Module = ir.Module
	// Element is a library NF with source, setup and metadata.
	Element = click.Element
	// Tool bundles Clara's trained analyses.
	Tool = core.Clara
	// Insights is the per-NF analysis report.
	Insights = core.Insights
	// NF is a ported network function: program plus porting decisions.
	NF = nicsim.NF
	// Placement assigns stateful globals to NIC memory regions.
	Placement = nicsim.Placement
	// Params is the simulated SmartNIC hardware model.
	Params = nicsim.Params
	// Result is one simulation measurement.
	Result = nicsim.Result
	// Workload is a traffic specification.
	Workload = traffic.Spec
	// Packet is a parsed packet.
	Packet = traffic.Packet
	// AccelConfig selects hardware engines for a port.
	AccelConfig = niccc.AccelConfig
	// Machine executes an NF over packets, with the NIC library's map and
	// vector semantics (reverse ported, §3.3).
	Machine = interp.Machine
	// Route is one LPM rule.
	Route = interp.Route
	// ProfileSetup provides state seeding for host profiling.
	ProfileSetup = core.ProfileSetup
	// Region is a NIC memory level.
	Region = isa.Region
	// Fleet analyzes batches of (NF, workload) jobs over a worker pool
	// with prediction caching.
	Fleet = fleet.Fleet
	// FleetConfig sizes a Fleet (workers, cache).
	FleetConfig = fleet.Config
	// FleetJob is one unit of fleet work.
	FleetJob = fleet.Job
	// FleetResult is one fleet job's outcome.
	FleetResult = fleet.Result
	// Stats is a fleet metrics snapshot (jobs, cache hits/misses,
	// analysis wall-time histogram).
	Stats = fleet.Stats
	// Diagnostic is one offloadability lint finding.
	Diagnostic = analysis.Diagnostic
	// Severity ranks lint findings (error > warning > info).
	Severity = analysis.Severity
	// LintConfig bounds the linter's NIC memory budgets.
	LintConfig = analysis.Config
	// LintSummary counts diagnostics by severity.
	LintSummary = analysis.Summary
	// Server is the HTTP analysis service (clara -serve): JSON insights
	// over bounded admission with cancellation and /metrics.
	Server = server.Server
	// ServerConfig sizes a Server (workers, queue depth, timeouts).
	ServerConfig = server.Config
	// ModelInfo is the served model's provenance (bundle hash, warm
	// start, training wall time) surfaced by /metrics and /healthz.
	ModelInfo = server.ModelInfo
	// Coordinator fronts a fleet of -serve workers (clara -coordinator):
	// content-hash job routing, fan-out/reassembly, health probes, and
	// merged cluster metrics.
	Coordinator = cluster.Coordinator
	// ClusterConfig sizes a Coordinator (worker endpoints, probe cadence,
	// forwarding timeout).
	ClusterConfig = cluster.Config
	// Prediction is Clara's per-NF instruction/memory prediction (§3),
	// as carried by Insights.Prediction.
	Prediction = core.ModulePrediction
)

// Diagnostic severities, most severe first.
const (
	SevError   = analysis.SevError
	SevWarning = analysis.SevWarning
	SevInfo    = analysis.SevInfo
)

// Memory regions of the simulated NIC, fastest/smallest first.
const (
	CLS  = isa.CLS
	CTM  = isa.CTM
	IMEM = isa.IMEM
	EMEM = isa.EMEM
)

// Standard workloads (§5 methodology).
var (
	LargeFlows = traffic.LargeFlows
	SmallFlows = traffic.SmallFlows
	MediumMix  = traffic.MediumMix
)

// CompileNF compiles NFC source into an analyzable module.
func CompileNF(name, src string) (*Module, error) { return lang.Compile(name, src) }

// DefaultParams returns the reference SmartNIC hardware model.
func DefaultParams() Params { return nicsim.DefaultParams() }

// Elements returns the built-in NF element library (Table 2).
func Elements() []*Element { return click.Library() }

// GetElement returns a library element by name, or nil.
func GetElement(name string) *Element { return click.Get(name) }

// TrainConfig sizes Tool training. Corpus synthesis, compilation,
// scale-out knee measurement and minibatch gradients run on up to
// GOMAXPROCS goroutines; the trained tool is bit-identical for any
// GOMAXPROCS.
type TrainConfig struct {
	// Quick trades accuracy for speed (tests, demos).
	Quick bool
	Seed  int64
}

// Train builds a full Clara tool: it synthesizes a corpus guided by the
// element library, trains the LSTM instruction predictor, the algorithm
// identifier, and the scale-out cost model against the simulated NIC.
func Train(cfg TrainConfig) (*Tool, error) {
	return TrainContext(context.Background(), cfg)
}

// TrainContext is Train under a context: cancellation is observed
// between training steps and inside the LSTM epoch loop, so a serving
// process interrupted during startup stops training promptly. The
// scale-out knees need no predictor, so they are measured on their own
// goroutine while the predictor and algorithm identifier train; an error
// in either half cancels the other, and both have finished on return.
func TrainContext(ctx context.Context, cfg TrainConfig) (*Tool, error) {
	params := nicsim.DefaultParams()
	mods, err := click.Modules(click.Table2Order)
	if err != nil {
		return nil, err
	}
	pcfg := core.PredictorConfig{CompactVocab: true, Seed: cfg.Seed}
	acN := 40
	scfg := core.ScaleoutConfig{Params: params, Seed: cfg.Seed}
	if cfg.Quick {
		pcfg.TrainPrograms, pcfg.Epochs, pcfg.Hidden = 50, 6, 16
		acN = 12
		scfg.TrainPrograms, scfg.PacketsPerTrace = 8, 400
		scfg.CoreGrid = []int{2, 8, 16, 32, 48, 60}
	}
	// The first failure cancels the other half and is the one returned.
	ctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	var knees *core.Knees
	kneesDone := make(chan error, 1)
	go func() {
		var err error
		knees, err = core.MeasureKnees(ctx, scfg)
		if err != nil {
			cancel(err)
		}
		kneesDone <- err
	}()
	pred, err := core.TrainPredictorContext(ctx, pcfg, core.CorpusProfile(mods))
	if err == nil {
		err = ctx.Err()
	}
	var algo *core.AlgoIdentifier
	if err == nil {
		algo, err = core.TrainAlgoIdentifier(core.AlgoTrainCorpus(acN, cfg.Seed), 48, cfg.Seed)
	}
	if err != nil {
		cancel(err)
	}
	if kerr := <-kneesDone; err != nil || kerr != nil {
		return nil, context.Cause(ctx)
	}
	sm, err := core.FitScaleout(knees, pred)
	if err != nil {
		return nil, err
	}
	return &Tool{Predictor: pred, AlgoID: algo, Scaleout: sm, Params: params}, nil
}

// Model-bundle rejection causes (see LoadTool), matchable with errors.Is.
var (
	ErrBundleVersion = core.ErrBundleVersion
	ErrBundleCorrupt = core.ErrBundleCorrupt
	ErrBundleStale   = core.ErrBundleStale
	ErrBundleConfig  = core.ErrBundleConfig
)

// SaveTool persists a trained tool as a versioned, content-hashed model
// bundle (atomic write). cfg must be the TrainConfig the tool was trained
// with — it is recorded so LoadTool can refuse mismatched bundles.
// trainSeconds is recorded for telemetry (0 if unknown). Returns the
// bundle's content hash.
func SaveTool(path string, tool *Tool, cfg TrainConfig, trainSeconds float64) (string, error) {
	b, err := core.NewBundle(tool, core.BundleMeta{
		Quick:        cfg.Quick,
		Seed:         cfg.Seed,
		TrainSeconds: trainSeconds,
		CreatedUnix:  time.Now().Unix(),
	})
	if err != nil {
		return "", err
	}
	if err := core.SaveBundle(path, b); err != nil {
		return "", err
	}
	return b.Hash, nil
}

// LoadTool restores a tool from a model bundle, validating the encoding
// version, content hash, vendor-library fingerprint, and that the bundle
// was trained under the requested cfg (Quick and Seed). The restored tool
// predicts bit-identically to the one SaveTool captured. Returns the
// bundle's content hash alongside the tool.
func LoadTool(path string, cfg TrainConfig) (*Tool, string, error) {
	b, err := core.LoadBundle(path)
	if err != nil {
		return nil, "", err
	}
	if b.Meta.Quick != cfg.Quick || b.Meta.Seed != cfg.Seed {
		return nil, "", fmt.Errorf("clara: %w: bundle trained with quick=%v seed=%d, want quick=%v seed=%d",
			core.ErrBundleConfig, b.Meta.Quick, b.Meta.Seed, cfg.Quick, cfg.Seed)
	}
	tool, err := b.Tool()
	if err != nil {
		return nil, "", err
	}
	return tool, b.Hash, nil
}

// NewServer builds the HTTP analysis service around a trained tool; see
// internal/server for the endpoint surface (/v1/analyze, /v1/lint,
// /v1/elements, /metrics, /debug/pprof).
func NewServer(cfg ServerConfig) (*Server, error) { return server.New(cfg) }

// NewCoordinator builds the cluster coordinator over a set of worker
// endpoints; see internal/cluster for the routing and failover
// contract.
func NewCoordinator(cfg ClusterConfig) (*Coordinator, error) { return cluster.New(cfg) }

// LintNF parses, lowers, and lints NFC source against the reference
// hardware model's memory budgets. Linting the source rather than a
// lowered module also reports constructs lowering rejects outright
// (recursion), and anchors state-size findings at the global declarations.
func LintNF(name, src string) ([]Diagnostic, error) {
	t := &Tool{Params: nicsim.DefaultParams()}
	return analysis.LintSource(name, src, t.LintConfig())
}

// RenderDiagnostics renders lint findings as human-readable lines with
// fix hints.
func RenderDiagnostics(ds []Diagnostic) string { return analysis.Render(ds) }

// SummarizeDiagnostics counts lint findings by severity.
func SummarizeDiagnostics(ds []Diagnostic) LintSummary { return analysis.Summarize(ds) }

// NewFleet builds a concurrent fleet analyzer around a trained tool.
func NewFleet(tool *Tool, cfg FleetConfig) (*Fleet, error) { return fleet.New(tool, cfg) }

// FleetSummary renders a fleet result batch as a summary table.
func FleetSummary(results []FleetResult) string { return fleet.Summary(results) }

// LibraryJobs builds one fleet job per (library element, workload) pair,
// in Table 2 row order crossed with the given workloads — the batch the
// analyze-fleet CLI mode runs.
func LibraryJobs(workloads ...Workload) ([]FleetJob, error) {
	if len(workloads) == 0 {
		workloads = []Workload{SmallFlows, LargeFlows, MediumMix}
	}
	var jobs []FleetJob
	for _, name := range click.Table2Order {
		for _, wl := range workloads {
			j, err := server.ElementJob(name, wl)
			if err != nil {
				return nil, err
			}
			jobs = append(jobs, j)
		}
	}
	return jobs, nil
}

// Simulate runs a ported NF on the simulated SmartNIC and reports
// throughput and latency.
func Simulate(params Params, nf *NF, wl Workload, packets, cores int) (Result, error) {
	b, err := nf.Build(params)
	if err != nil {
		return Result{}, err
	}
	ts, err := nicsim.GenTraces(b, wl, packets, params)
	b.Machine.Release()
	if err != nil {
		return Result{}, err
	}
	return nicsim.Simulate(params, cores, ts)
}

// SimulatePair runs two NFs colocated on the NIC (split cores, shared
// memory system) and returns both results.
func SimulatePair(params Params, a, b *NF, wl Workload, packets, coresEach int) ([]Result, error) {
	var parts []nicsim.Part
	for _, nf := range []*NF{a, b} {
		bt, err := nf.Build(params)
		if err != nil {
			return nil, err
		}
		ts, err := nicsim.GenTraces(bt, wl, packets, params)
		bt.Machine.Release()
		if err != nil {
			return nil, err
		}
		parts = append(parts, nicsim.Part{TS: ts, Cores: coresEach})
	}
	return nicsim.SimulateColocation(params, parts)
}
