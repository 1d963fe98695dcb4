package core

import (
	"testing"

	"clara/internal/click"
	"clara/internal/interp"
	"clara/internal/traffic"
)

// profileLoop builds the exact machinery of the ProfileOnHostSourceContext
// hot loop — NICMap machine, native counters, trace replayer with caller
// scratch — and returns a closure replaying n packets through it. One warm
// pass is run first so the one-time costs (compile and lowering, payload
// scratch growth, map state reaching its steady-state size) are paid
// before the caller measures.
func profileLoop(tb testing.TB, name string, n int) func() {
	tb.Helper()
	e := click.Get(name)
	if e == nil {
		tb.Fatalf("no library element %q", name)
	}
	mod := e.MustModule()
	m, err := interp.New(mod, interp.Config{Mode: interp.NICMap, LPMTable: e.Routes})
	if err != nil {
		tb.Fatal(err)
	}
	if e.Setup != nil {
		if err := e.Setup(m); err != nil {
			tb.Fatal(err)
		}
	}
	m.EnableCounters()
	rep, err := traffic.NewReplayer(traffic.MustTrace(traffic.MediumMix, n))
	if err != nil {
		tb.Fatal(err)
	}
	var pbuf []byte
	// p hoisted exactly as in ProfileOnHostSourceContext: RunPacket
	// retains &p, so a per-iteration variable would escape.
	var p traffic.Packet
	loop := func() {
		for i := 0; i < n; i++ {
			p, pbuf = rep.NextBuf(pbuf)
			if err := m.RunPacket(&p); err != nil {
				tb.Fatal(err)
			}
		}
	}
	loop()
	return loop
}

// TestProfileLoopZeroAllocs pins the host-profiling packet loop at zero
// heap allocations per packet: the replayer copies payloads into reused
// scratch, the machine's register file and counters are preallocated, and
// the interpreter's step lists are built once per module. A regression
// here silently taxes every fleet job, so it fails the build rather than
// just a benchmark delta.
func TestProfileLoopZeroAllocs(t *testing.T) {
	for _, name := range []string{"udpcount", "cmsketch", "wepdecap", "iplookup"} {
		t.Run(name, func(t *testing.T) {
			const n = 256
			loop := profileLoop(t, name, n)
			if a := testing.AllocsPerRun(5, loop); a > 0 {
				t.Fatalf("profiling loop allocates: %.1f allocs per %d packets", a, n)
			}
		})
	}
}

// BenchmarkProfilePacketLoop measures the steady-state per-packet cost of
// host profiling (replayer + compiled machine + counters), with allocs
// reported so `-benchmem` shows the 0 allocs/op contract. udpcount is a
// short straight-line handler (3 blocks a packet); wepdecap and cmsketch
// are the loop-heavy elements most of a library batch's profiling time
// goes to, and iplookup's trie walk is the next-heaviest loop.
func BenchmarkProfilePacketLoop(b *testing.B) {
	for _, name := range []string{"udpcount", "wepdecap", "cmsketch", "iplookup"} {
		b.Run(name, func(b *testing.B) {
			const n = 256
			loop := profileLoop(b, name, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i += n {
				loop()
			}
		})
	}
}
