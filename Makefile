GO ?= go

.PHONY: build test race vet fmt-check check serve-check cluster-check store-check simulate-check interp-check analysis-check bench-check repro-check fuzz bench-fleet update-golden

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-checked run of every package; the fleet tests drive 17 NFs x 3
# workloads across an 8-worker pool under the race detector.
race:
	$(GO) test -race ./...

# vet runs go vet plus claravet, the project's determinism analyzer
# (time.Now / global rand / map-range / stray float reductions in the
# packages that promise bit-identical output; see cmd/claravet).
vet:
	$(GO) vet ./...
	$(GO) run ./cmd/claravet

# fmt-check fails listing any file gofmt would rewrite.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# serve-check exercises the HTTP serving layer end to end under the
# race detector: concurrent requests, backpressure, cancellation,
# panic isolation, graceful shutdown — and TestDoorsAgree, which holds the
# server, the coordinator, Fleet.Run and Tool.Analyze to the same answers.
serve-check:
	$(GO) test -race ./internal/server/...
	$(GO) test -race -run TestDoorsAgree .

# cluster-check exercises the coordinator/worker layer end to end under
# the race detector: content-hash routing, worker death mid-batch with
# single retry, probe-driven rejoin, probes that keep their connection and
# a backoff cap never below the probe interval (TestProbeReusesConnection,
# TestProbeBackoffCap), merged metrics — and the reply's writer and cutter
# together (WriteResults / SplitResults, one validation check per forwarded
# result, by a checker held to json.Valid's language by
# TestValidJSONMatchesStdlib, that scans each distinct insights value once;
# TestSplitResultsWarmVerdicts holds one-byte mutants of real results that
# arrive again to json.Valid's verdict) — and TestConcurrentRepliesIntact: batches of
# three sizes in flight at once over two real workers, every reply cut at its
# own lengths and every result's insights the bytes a serial reply carried.
# The two layer benchmarks of the reply path (BenchmarkAnalyzeHit,
# BenchmarkCoordinatorHop) run once each, so they keep compiling and running.
cluster-check:
	$(GO) test -race ./internal/cluster/...
	$(GO) test -race -run 'TestWireSplice|TestHopOneScan|TestValidJSONMatchesStdlib|TestSplitResultsWarmVerdicts' ./internal/server/
	$(GO) test -race -run TestDoorsAgree .
	$(GO) test -run '^$$' -bench 'AnalyzeHit|CoordinatorHop' -benchtime=1x ./internal/server/ ./internal/cluster/

# store-check holds the keyed stores to their contracts under the race
# detector: memo's singleflight (waiter contexts included); the fleet's
# result tier — second-sighting admission, every key component, hit ==
# fresh analysis after a miss and after an eviction, and no waiter ever
# inheriting its leader's cancellation, deadline or panic; the module
# store — one static half per module across batches and lone jobs, results
# equal to one-job runs, nothing kept from a panicked static half; no store
# keeping a never-seen program's source alive, and each program leaving at
# most a stated budget of live heap behind (TestStoresKeepNoSource); the doors
# agreeing cold and warm; and the server's wire splice, with a warm
# /v1/analyze pinned to zero insights encodes and a stated allocation count.
store-check:
	$(GO) test -race ./internal/memo/
	$(GO) test -race -run 'TestResult|TestWaiter|TestPanicStaysPerJob|TestBatchSharesModuleFacts|TestModuleStoreAcrossBatches|TestLoneJobsShareModuleFacts|TestModuleFactsPanicNotKept|TestStoresKeepNoSource' ./internal/fleet/
	$(GO) test -race -run 'TestWireSplice|TestWarmAnalyzeNoEncode' ./internal/server/
	$(GO) test -race -run TestDoorsAgree .

# simulate-check exercises the offload controller under the race
# detector — golden trajectories, invariants, bit-determinism across
# GOMAXPROCS — and then runs `clara -simulate` end to end once per
# policy (no training: the CLI's nominal-prediction path).
simulate-check:
	$(GO) test -race ./internal/offload/ ./cmd/clara/
	$(GO) run ./cmd/clara -simulate -scenario synflood -policy insight -rounds 24 > /dev/null
	$(GO) run ./cmd/clara -simulate -scenario zipf -policy dynamic -rounds 24 > /dev/null
	$(GO) run ./cmd/clara -simulate -scenario elephantmice -policy static -rounds 24 > /dev/null

# interp-check runs the interpreter's differential suite under the race
# detector: every library element x every traffic spec, counting and
# hooked, plus the fuel-starvation sweep and 300 generated programs, must
# produce byte-identical transcripts from RunPacket (the step engine) and
# the reference loop — also with fuel running out inside
# every superblock a packet enters (TestChainFuelBoundary) and for every
# framework API alone in a handler (TestEveryAPIRuns); native counters must
# match the hooks and read the same whenever they are read
# (TestCountersMatchHooks, TestCountersReadAnytime); the profile loop must
# not allocate. TestNICSemanticsPinned hashes the hooked transcripts of the
# library, every API alone and a map/vector churn program, so a change to
# what a map or vector operation returns, probes or touches fails it.
# The slab tests run every program on state other programs released (8
# goroutines at once, generation wraparound included) and require it to be
# indistinguishable from fresh memory; a released machine must panic.
# A compiled program must not keep its module's source reachable
# (TestProgramKeepsNoSource). Every API in the ir catalog must compile to
# an op of the call class (TestEveryAPICompilesToACallOp) and lower to
# routines the vendor library costs under every engine setting
# (TestLibraryProfilesComplete, in niccc). The interpreter compiles only
# what ir.Verify accepts: TestVerifyRejects (in ir) holds Verify to one
# malformed module per check the interpreter once made itself, and
# TestNewRejectsUnlowerableModule holds New and Precompile to Verify's error.
interp-check:
	$(GO) test -race -run 'TestNICSemanticsPinned|TestCompiledBackendEquivalence|TestChainFuelBoundary|TestEveryAPIRuns|TestEveryAPICompilesToACallOp|TestLibraryProfilesComplete|TestCountersReadAnytime|TestCountersMatchHooks|TestProfileLoopZeroAllocs|TestSlab|TestUseAfterRelease|TestProgramKeepsNoSource|TestVerifyRejects|TestNewRejectsUnlowerableModule' ./internal/interp/ ./internal/core/ ./internal/niccc/ ./internal/ir/

# analysis-check holds analysis.Analyze — the job pipeline's one call into
# the package — to the two passes it replaced (equal results over the
# library and the 300 unique-src programs) and pins "every fact once": an
# absolute allocation count over the library, and one slot SSA shared by
# the interval and taint fixpoints. Over the same modules it checks that
# renumbering blocks and slots changes no diagnostic or state profile, and that
# SimplifyModule's output behaves as its input on 96 traced packets, and
# TestAnalysisOutputGolden pins every module's diagnostics, state profile
# and simplified IR by hash (testdata/analysis_outputs.golden). It also
# runs the `!=` trip-bound test and TestSubroutineFactsInline: a
# subroutine's weight, taint and constant facts survive the frontend's
# inlining into the module's one function. No rule re-checks what lowering
# guarantees: TestLoweringGuarantees holds the same modules to ir.Verify and
# to no load reading a slot's undefined entry value, and TestLintRecursion
# and TestLintRecursionIsCompileRefusal hold the recursion finding to
# lang.Compile's refusal. TestLoweringLeavesNoUnreachableBlock (in lang)
# holds lowering to blocks a path reaches.
analysis-check:
	$(GO) test -run 'TestAnalyzeMatchesSeparatePasses|TestAnalyzeAllocations|TestOneSolvePerFunction|TestAnalyzeMetamorphic|TestSimplifyEquivalence|TestAnalysisOutputGolden|TestLintNETripBound|TestSubroutineFactsInline|TestLoweringGuarantees|TestLintRecursion|TestLoweringLeavesNoUnreachableBlock' ./internal/analysis/ ./internal/lang/

# bench-check vets and tests the BENCHMARK.json harness. bench/ is a
# nested module, invisible to ./... above, and it imports interp.Precompile
# and core.ProfileOnHost* directly — so a change that breaks those for the
# harness shows here and nowhere else.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# repro-check holds the paper's evaluation (cmd/clarabench -quick) to its
# pinned transcript, internal/experiments/testdata/quick.golden, byte for
# byte; requires it to be identical across fresh runs under GOMAXPROCS 1
# and 4; and asserts each headline claim's shape with explicit bands (the
# claims quick scale does not reproduce are recorded as known gaps). Beside
# them, TestLibraryInsightsGolden holds the served quick tool's Insights for
# the 51-job library batch to testdata/library_insights.golden, and the
# simulator's pins hold every core sweep's results bit for bit and its event
# heap to container/heap's tie order. TestAlgoFeaturesPinned holds the
# static half's IR-derived facts to one hash: every algorithm-ID feature and
# label of the library and the quick training corpus, and the synthesizer
# profile of the Table 2 elements.
repro-check:
	$(GO) test -run 'TestQuickSuite|TestPaperClaims' ./internal/experiments/
	$(GO) test -run TestLibraryInsightsGolden .
	$(GO) test -run TestAlgoFeaturesPinned ./internal/core/
	$(GO) test -run 'TestSimulationBitsPinned|TestCoreHeapMatchesContainerHeap' ./internal/nicsim/

# check is the PR gate: static gates first, then build, plain tests,
# then the race passes, then the benchmark harness's own tests (whose
# TestSmoke drives all four BENCHMARK.json workloads, traced and untraced),
# then the reproduction's golden and claims.
check: vet fmt-check build test race serve-check cluster-check store-check simulate-check interp-check analysis-check bench-check repro-check

# Short smoke runs of every fuzz target (seed corpus always runs under
# plain `go test`; this adds a bounded mutation pass).
fuzz:
	$(GO) test -run=^$$ -fuzz=FuzzParse -fuzztime=20s ./internal/lang/
	$(GO) test -run=^$$ -fuzz=FuzzCompile$$ -fuzztime=20s ./internal/lang/
	$(GO) test -run=^$$ -fuzz=FuzzCompileNF -fuzztime=20s .
	$(GO) test -run=^$$ -fuzz=FuzzLint -fuzztime=20s ./internal/analysis/
	$(GO) test -run=^$$ -fuzz=FuzzTaint -fuzztime=20s ./internal/analysis/
	$(GO) test -run=^$$ -fuzz=FuzzSimulate -fuzztime=10s ./internal/offload/
	$(GO) test -run=^$$ -fuzz=FuzzCompiledExec -fuzztime=20s ./internal/interp/
	$(GO) test -run=^$$ -fuzz=FuzzSplitResults -fuzztime=10s ./internal/server/
	$(GO) test -run=^$$ -fuzz=FuzzValidJSON -fuzztime=20s ./internal/server/

bench-fleet:
	$(GO) test -run=^$$ -bench=BenchmarkFleetAnalyze -benchtime=5x .

# Regenerate the Insights.Report, lint, simulation-trajectory,
# taint/frequency state-profile, quick-suite evaluation, library-insights,
# module-fingerprint and /metrics wire-form golden files after intentional
# formatting/simulator/analysis/experiment/model/metrics-schema changes.
update-golden:
	$(GO) test ./internal/core/ -run TestReportGolden -update
	$(GO) test ./internal/analysis/ -run TestLintGolden -update
	$(GO) test ./internal/offload/ -run TestSimulateGolden -update
	$(GO) test ./internal/analysis/ -run TestStateProfileGoldens -update
	$(GO) test ./internal/analysis/ -run TestAnalysisOutputGolden -update
	$(GO) test ./internal/experiments/ -run TestQuickSuiteRuns -update
	$(GO) test . -run TestLibraryInsightsGolden -update
	$(GO) test ./internal/ir/ -run TestFingerprintGolden -update
	$(GO) test ./internal/server/ -run TestMetricsWireGolden -update
