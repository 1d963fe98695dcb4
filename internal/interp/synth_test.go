package interp_test

import (
	"fmt"
	"strings"
	"testing"

	"clara/internal/click"
	"clara/internal/interp"
	"clara/internal/ir"
	"clara/internal/lang"
	"clara/internal/synth"
	"clara/internal/traffic"
)

// uniqueSrcModules compiles the benchmark's first n unique-src programs:
// the Table 2 corpus profile, seeds 1000003 onward, named u0, u1, ….
func uniqueSrcModules(tb testing.TB, n int) []*ir.Module {
	tb.Helper()
	table2, err := click.Modules(click.Table2Order)
	if err != nil {
		tb.Fatal(err)
	}
	prof := synth.ProfileFromModules(table2)
	mods := make([]*ir.Module, n)
	for p := range mods {
		name := fmt.Sprintf("u%d", p)
		if mods[p], err = lang.Compile(name, synth.Generate(synth.Config{Profile: prof, Seed: 1000003 + int64(p)})); err != nil {
			tb.Fatalf("%s: %v", name, err)
		}
	}
	return mods
}

// BenchmarkRunPacketSynth runs one unique-src program (u0) the way host
// profiling does: NIC map semantics, counters on, the step engine, over a
// replayed mix trace.
func BenchmarkRunPacketSynth(b *testing.B) {
	mod := uniqueSrcModules(b, 1)[0]
	m, err := interp.New(mod, interp.Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer m.Release()
	m.EnableCounters()
	pkts := traffic.MustTrace(traffic.MediumMix, 800)
	// p is hoisted out of the loop, as in the profiler: RunPacket retains
	// &p for the packet's duration, so a per-iteration copy would escape.
	var p traffic.Packet
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p = pkts[i%len(pkts)]
		if err := m.RunPacket(&p); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(m.Steps)/float64(b.N), "instrs/pkt")
}

// TestPacketCallsAreSteps lowers every library element and the 300
// unique-src programs and requires that no packet API (pkt_*) is left as
// an xCall step: the header getters, setters, pkt_send, pkt_drop and
// pkt_csum_update run as xPktGet/xPktSet steps, pkt_payload and
// pkt_set_payload as their own. Only the APIs with state or probe work
// reach Machine.call.
func TestPacketCallsAreSteps(t *testing.T) {
	mods := uniqueSrcModules(t, 300)
	for _, e := range click.Library() {
		m, err := e.Module()
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		mods = append(mods, m)
	}
	pktCalls, otherCalls := 0, 0
	for _, m := range mods {
		callees, err := interp.CallSteps(m)
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		for _, c := range callees {
			if strings.HasPrefix(c, "pkt_") {
				t.Errorf("%s: %s is still an xCall step", m.Name, c)
			}
		}
		otherCalls += len(callees)
		for _, b := range m.Func.Blocks {
			for _, in := range b.Instrs {
				if in.Op == ir.OpCall && strings.HasPrefix(in.Callee, "pkt_") {
					pktCalls++
				}
			}
		}
	}
	if pktCalls == 0 || otherCalls == 0 {
		t.Fatalf("population has %d packet call sites and %d other call steps; the test needs both", pktCalls, otherCalls)
	}
}
