package nicsim

import (
	"math"
	"testing"

	"clara/internal/interp"
	"clara/internal/isa"
	"clara/internal/lang"
	"clara/internal/niccc"
	"clara/internal/traffic"
)

const counterNF = `
map<u64,u64> flows[8192];
global u32 total;
void handle() {
	u64 k = (u64(pkt_ip_src()) << 32) | u64(pkt_ip_dst());
	u64 c = map_find(flows, k);
	map_insert(flows, k, c + 1);
	total += 1;
	pkt_send(0);
}
`

const bigCounterNF = `
map<u64,u64> flows[262144];
global u32 total;
void handle() {
	u64 k = (u64(pkt_ip_src()) << 32) | u64(pkt_ip_dst());
	u64 c = map_find(flows, k);
	map_insert(flows, k, c + 1);
	total += 1;
	pkt_send(0);
}
`

const csumNF = `
void handle() {
	pkt_set_ip_ttl(pkt_ip_ttl() - 1);
	pkt_csum_update();
	pkt_send(0);
}
`

func buildNF(t *testing.T, name, src string, mut func(*NF)) *Built {
	t.Helper()
	mod, err := lang.Compile(name, src)
	if err != nil {
		t.Fatal(err)
	}
	nf := &NF{Name: name, Mod: mod}
	if mut != nil {
		mut(nf)
	}
	b, err := nf.Build(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func genTraces(t *testing.T, b *Built, wl traffic.Spec, n int) *TraceSet {
	t.Helper()
	ts, err := GenTraces(b, wl, n, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	return ts
}

func smallWL() traffic.Spec {
	wl := traffic.SmallFlows
	wl.NumFlows = 2048
	return wl
}

func TestParamsValidate(t *testing.T) {
	p := DefaultParams()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultParams()
	bad.Regions[isa.EMEM].Latency = 1
	if err := bad.Validate(); err == nil {
		t.Error("accepted non-monotone hierarchy")
	}
	bad2 := DefaultParams()
	bad2.NumCores = 0
	if err := bad2.Validate(); err == nil {
		t.Error("accepted zero cores")
	}
	// The replay keys its heap by the bits of clocks that only move
	// forward by finite amounts: every cost must be finite, not negative,
	// and fit its Event field.
	nan, inf := math.NaN(), math.Inf(1)
	for _, c := range []struct {
		name string
		mut  func(*Params)
	}{
		{"NaN IngressMpps", func(p *Params) { p.IngressMpps = nan }},
		{"+Inf IngressMpps", func(p *Params) { p.IngressMpps = inf }},
		{"NaN CoreGHz", func(p *Params) { p.CoreGHz = nan }},
		{"+Inf CoreGHz", func(p *Params) { p.CoreGHz = inf }},
		{"negative LMEM latency", func(p *Params) { p.Regions[isa.LMEM].Latency = -1 }},
		{"negative LMEM issue", func(p *Params) { p.Regions[isa.LMEM].Issue = -0.5 }},
		{"NaN CTM issue", func(p *Params) { p.Regions[isa.CTM].Issue = nan }},
		{"+Inf EMEM issue", func(p *Params) { p.Regions[isa.EMEM].Issue = inf }},
		{"EMEM latency past int32", func(p *Params) { p.Regions[isa.EMEM].Latency = math.MaxInt32 + 1 }},
		{"negative EMEM cache hit", func(p *Params) { p.EMEMCacheHitLat = -260 }},
		{"NaN EMEM cache issue", func(p *Params) { p.EMEMCacheIssue = nan }},
		{"negative Csum latency", func(p *Params) { p.Csum.Latency = -1 }},
		{"+Inf Crc issue", func(p *Params) { p.Crc.Issue = inf }},
		{"negative Lpm issue", func(p *Params) { p.Lpm.Issue = -4 }},
		{"NaN Hash issue", func(p *Params) { p.Hash.Issue = nan }},
		{"Hash issue past float32", func(p *Params) { p.Hash.Issue = 1e39 }},
		{"negative flow-cache hit", func(p *Params) { p.FlowCacheHitCycles = -120 }},
		{"negative wire overhead", func(p *Params) { p.WireOverheadCycles = -140 }},
	} {
		p := DefaultParams()
		c.mut(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("accepted %s", c.name)
		}
	}
}

func TestTraceGeneration(t *testing.T) {
	b := buildNF(t, "ctr", counterNF, nil)
	ts := genTraces(t, b, smallWL(), 500)
	if ts.Packets() != 500 {
		t.Fatalf("packets = %d", ts.Packets())
	}
	if ts.Sent != 500 || ts.Dropped != 0 {
		t.Errorf("sent/dropped = %d/%d", ts.Sent, ts.Dropped)
	}
	if ts.MemAccesses[isa.EMEM] == 0 {
		t.Error("no EMEM accesses recorded for default placement")
	}
	if ts.ComputeCycles == 0 {
		t.Error("no compute cycles recorded")
	}
	// Every packet has at least one event.
	for i := 0; i < ts.Packets(); i++ {
		if ts.Off[i+1] <= ts.Off[i] {
			t.Fatalf("packet %d has no events", i)
		}
	}
}

func TestThroughputScalesThenPlateaus(t *testing.T) {
	b := buildNF(t, "ctr", bigCounterNF, nil)
	wl := smallWL()
	wl.NumFlows = 60000
	ts := genTraces(t, b, wl, 6000)
	params := DefaultParams()
	rs, err := SweepCores(params, ts, []int{1, 4, 16, 60})
	if err != nil {
		t.Fatal(err)
	}
	if !(rs[1].ThroughputMpps > 3*rs[0].ThroughputMpps) {
		t.Errorf("4 cores (%f) should be >3x 1 core (%f)", rs[1].ThroughputMpps, rs[0].ThroughputMpps)
	}
	// At 60 cores the NF hits a ceiling: scaling stops being linear.
	if rs[3].ThroughputMpps > 55*rs[0].ThroughputMpps {
		t.Errorf("60-core throughput %f suspiciously linear vs 1-core %f",
			rs[3].ThroughputMpps, rs[0].ThroughputMpps)
	}
	if rs[3].ThroughputMpps > params.IngressMpps {
		t.Errorf("throughput %f exceeds the ingress ceiling %f", rs[3].ThroughputMpps, params.IngressMpps)
	}
	// The plateau is real: scaling 16 -> 60 cores gains far less than the
	// core ratio.
	if rs[3].ThroughputMpps > rs[2].ThroughputMpps*(60.0/16.0)*0.9 {
		t.Errorf("no plateau: 16 cores %f, 60 cores %f", rs[2].ThroughputMpps, rs[3].ThroughputMpps)
	}
}

func TestChecksumEngineSpeedsUp(t *testing.T) {
	naive := buildNF(t, "csum-sw", csumNF, nil)
	accel := buildNF(t, "csum-hw", csumNF, func(nf *NF) { nf.Accel.CsumEngine = true })
	wl := traffic.MediumMix
	params := DefaultParams()
	tsN := genTraces(t, naive, wl, 2000)
	tsA := genTraces(t, accel, wl, 2000)
	rN, err := Simulate(params, 8, tsN)
	if err != nil {
		t.Fatal(err)
	}
	rA, err := Simulate(params, 8, tsA)
	if err != nil {
		t.Fatal(err)
	}
	if rA.AvgLatencyUs >= rN.AvgLatencyUs {
		t.Errorf("engine csum latency %f !< software %f", rA.AvgLatencyUs, rN.AvgLatencyUs)
	}
	if rA.ThroughputMpps <= rN.ThroughputMpps {
		t.Errorf("engine csum throughput %f !> software %f", rA.ThroughputMpps, rN.ThroughputMpps)
	}
}

func TestPlacementChangesLatency(t *testing.T) {
	// Same NF, state in EMEM vs CLS: CLS must be faster (small flows defeat
	// the EMEM cache).
	wl := smallWL()
	const smallCounterNF = `
map<u64,u64> flows[2048];
global u32 total;
void handle() {
	u64 k = (u64(pkt_ip_src()) << 32) | u64(pkt_ip_dst());
	map_insert(flows, k, map_find(flows, k) + 1);
	total += 1;
	pkt_send(0);
}
`
	slow := buildNF(t, "ctr-emem", smallCounterNF, nil)
	fast := buildNF(t, "ctr-cls", smallCounterNF, func(nf *NF) {
		nf.Placement = Placement{"flows": isa.CLS, "total": isa.CLS}
	})
	params := DefaultParams()
	tsS := genTraces(t, slow, wl, 3000)
	tsF := genTraces(t, fast, wl, 3000)
	rS, _ := Simulate(params, 8, tsS)
	rF, _ := Simulate(params, 8, tsF)
	if rF.AvgLatencyUs >= rS.AvgLatencyUs {
		t.Errorf("CLS latency %f !< EMEM latency %f", rF.AvgLatencyUs, rS.AvgLatencyUs)
	}
}

func TestPlacementCapacityEnforced(t *testing.T) {
	mod, err := lang.Compile("big", `
map<u64,u64> huge[1000000];
void handle() { map_insert(huge, 1, 2); pkt_send(0); }
`)
	if err != nil {
		t.Fatal(err)
	}
	nf := &NF{Name: "big", Mod: mod, Placement: Placement{"huge": isa.CLS}}
	if _, err := nf.Build(DefaultParams()); err == nil {
		t.Error("17MB map fit in 64KB CLS")
	}
	nf.Placement = Placement{"huge": isa.LMEM}
	if _, err := nf.Build(DefaultParams()); err == nil {
		t.Error("LMEM placement accepted")
	}
}

func TestEMEMCacheFlowSizeSensitivity(t *testing.T) {
	// Few flows -> cache hits; many flows -> misses.
	big := buildNF(t, "ctr", bigCounterNF, nil)
	few := traffic.LargeFlows
	many := smallWL()
	many.NumFlows = 60000
	tsFew := genTraces(t, big, few, 3000)
	big2 := buildNF(t, "ctr", bigCounterNF, nil)
	tsMany := genTraces(t, big2, many, 3000)
	hitFew := float64(tsFew.EMEMHits) / float64(tsFew.EMEMHits+tsFew.EMEMMisses+1)
	hitMany := float64(tsMany.EMEMHits) / float64(tsMany.EMEMHits+tsMany.EMEMMisses+1)
	if hitFew < hitMany+0.2 {
		t.Errorf("large-flow hit rate %f should far exceed small-flow %f", hitFew, hitMany)
	}
}

func TestFlowCacheBypassesCores(t *testing.T) {
	wl := traffic.LargeFlows
	plain := buildNF(t, "ctr", counterNF, nil)
	cached := buildNF(t, "ctr-fc", counterNF, func(nf *NF) { nf.Accel.FlowCache = true })
	tsP := genTraces(t, plain, wl, 3000)
	tsC := genTraces(t, cached, wl, 3000)
	if tsC.FlowCacheHits == 0 {
		t.Fatal("no flow cache hits on a 64-flow workload")
	}
	params := DefaultParams()
	rP, _ := Simulate(params, 4, tsP)
	rC, _ := Simulate(params, 4, tsC)
	if rC.AvgLatencyUs >= rP.AvgLatencyUs/2 {
		t.Errorf("flow cache latency %f not well below %f", rC.AvgLatencyUs, rP.AvgLatencyUs)
	}
}

func TestCoalescingReducesAccesses(t *testing.T) {
	src := `
global u32 a;
global u32 b;
global u32 c;
void handle() {
	a += 1;
	b += u32(pkt_len());
	c ^= pkt_ip_src();
	pkt_send(0);
}
`
	plain := buildNF(t, "pack-no", src, nil)
	packed := buildNF(t, "pack-yes", src, func(nf *NF) {
		nf.Packs = [][]string{{"a", "b", "c"}}
	})
	wl := traffic.MediumMix
	tsP := genTraces(t, plain, wl, 1000)
	tsK := genTraces(t, packed, wl, 1000)
	if tsK.CoalesceMerged == 0 {
		t.Fatal("no merged accesses under the pack plan")
	}
	if tsK.MemAccesses[isa.EMEM] >= tsP.MemAccesses[isa.EMEM] {
		t.Errorf("packed EMEM accesses %d !< plain %d",
			tsK.MemAccesses[isa.EMEM], tsP.MemAccesses[isa.EMEM])
	}
	params := DefaultParams()
	rP, _ := Simulate(params, 8, tsP)
	rK, _ := Simulate(params, 8, tsK)
	if rK.AvgLatencyUs >= rP.AvgLatencyUs {
		t.Errorf("coalesced latency %f !< plain %f", rK.AvgLatencyUs, rP.AvgLatencyUs)
	}
}

func TestPackValidation(t *testing.T) {
	mod, _ := lang.Compile("p", `
global u32 a;
global u32 b[4];
void handle() { a += 1; pkt_send(0); }
`)
	nf := &NF{Name: "p", Mod: mod, Packs: [][]string{{"a", "b"}}}
	if _, err := nf.Build(DefaultParams()); err == nil {
		t.Error("array accepted into a scalar pack")
	}
	nf.Packs = [][]string{{"a"}, {"a"}}
	if _, err := nf.Build(DefaultParams()); err == nil {
		t.Error("duplicate pack membership accepted")
	}
}

func TestColocationInterference(t *testing.T) {
	// A memory-heavy NF colocated with another memory-heavy NF suffers;
	// its solo throughput on the same cores must be higher.
	wl := smallWL()
	a := buildNF(t, "ctrA", counterNF, nil)
	bb := buildNF(t, "ctrB", counterNF, nil)
	tsA := genTraces(t, a, wl, 3000)
	tsB := genTraces(t, bb, wl, 3000)
	params := DefaultParams()
	solo, err := Simulate(params, 30, tsA)
	if err != nil {
		t.Fatal(err)
	}
	co, err := SimulateColocation(params, []Part{{tsA, 30}, {tsB, 30}})
	if err != nil {
		t.Fatal(err)
	}
	if co[0].ThroughputMpps >= solo.ThroughputMpps {
		t.Errorf("colocated throughput %f !< solo %f", co[0].ThroughputMpps, solo.ThroughputMpps)
	}
}

func TestColocationValidation(t *testing.T) {
	b := buildNF(t, "ctr", counterNF, nil)
	ts := genTraces(t, b, smallWL(), 100)
	params := DefaultParams()
	if _, err := SimulateColocation(params, nil); err == nil {
		t.Error("empty parts accepted")
	}
	if _, err := SimulateColocation(params, []Part{{ts, 40}, {ts, 40}}); err == nil {
		t.Error("oversubscribed cores accepted")
	}
	if _, err := SimulateColocation(params, []Part{{ts, 0}}); err == nil {
		t.Error("zero-core part accepted")
	}
}

func TestKneeAndSaturationHelpers(t *testing.T) {
	rs := []Result{
		{Cores: 1, ThroughputMpps: 1, AvgLatencyUs: 1},
		{Cores: 8, ThroughputMpps: 7, AvgLatencyUs: 1.2},
		{Cores: 16, ThroughputMpps: 10, AvgLatencyUs: 3},
		{Cores: 32, ThroughputMpps: 10.4, AvgLatencyUs: 9},
	}
	if k := KneeCores(rs); k != 8 {
		t.Errorf("knee = %d, want 8", k)
	}
	if c := CoresToSaturate(rs, 0.95); c != 16 {
		t.Errorf("saturate = %d, want 16", c)
	}
}

func TestDeterministicSimulation(t *testing.T) {
	b1 := buildNF(t, "ctr", counterNF, nil)
	b2 := buildNF(t, "ctr", counterNF, nil)
	ts1 := genTraces(t, b1, smallWL(), 1000)
	ts2 := genTraces(t, b2, smallWL(), 1000)
	params := DefaultParams()
	r1, _ := Simulate(params, 12, ts1)
	r2, _ := Simulate(params, 12, ts2)
	if r1 != r2 {
		t.Errorf("nondeterministic: %+v vs %+v", r1, r2)
	}
}

func TestOfferedRateCapsThroughput(t *testing.T) {
	b := buildNF(t, "ctr", counterNF, nil)
	wl := smallWL()
	wl.RatePps = 2e6 // 2 Mpps offered
	ts := genTraces(t, b, wl, 2000)
	r, err := Simulate(DefaultParams(), 40, ts)
	if err != nil {
		t.Fatal(err)
	}
	if r.ThroughputMpps > 2.3 {
		t.Errorf("throughput %f exceeds the 2 Mpps offered load", r.ThroughputMpps)
	}
}

func TestSetupSeedsState(t *testing.T) {
	src := `
map<u64,u64> acl[1024];
void handle() {
	if (map_contains(acl, u64(pkt_ip_src()))) { pkt_drop(); return; }
	pkt_send(0);
}
`
	b := buildNF(t, "acl", src, func(nf *NF) {
		nf.Setup = func(m *interp.Machine) error {
			return m.MapSeed("acl", 0xC0A80000, 1)
		}
	})
	p := traffic.Packet{SrcIP: 0xC0A80000, OutPort: -2, Proto: traffic.ProtoTCP}
	if err := b.Machine.RunPacket(&p); err != nil {
		t.Fatal(err)
	}
	if !p.Dropped() {
		t.Error("seeded ACL entry not honored")
	}
}

var _ = niccc.AccelConfig{}
