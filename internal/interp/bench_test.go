package interp

import (
	"testing"

	"clara/internal/ir"
	"clara/internal/lang"
	"clara/internal/traffic"
)

func compileB(b *testing.B, name, src string) *ir.Module {
	b.Helper()
	m, err := lang.Compile(name, src)
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// Benchmark sources span the two shapes that dominate host profiling:
// map-heavy connection tracking (API cost) and loop-heavy per-packet
// compute (raw dispatch cost).
const benchLoopSrc = `
global u64 acc[256];
global u32 seen;
void handle() {
	u32 h = hash32(u64(pkt_ip_src()) ^ (u64(pkt_ip_dst()) << 13));
	u32 n = pkt_payload_len();
	u64 s = 0;
	for (u32 i = 0; i < 32; i += 1) {
		u64 b = u64(pkt_payload(i % n));
		s = (s * 31 + b) ^ (s >> 7);
		acc[(h + i) & 255] += s & 0xff;
	}
	seen += 1;
	if ((s & 3) == 0) { pkt_drop(); } else { pkt_send(0); }
}
`

func benchPackets(b *testing.B, n int) []traffic.Packet {
	b.Helper()
	gen, err := traffic.NewGenerator(traffic.MediumMix)
	if err != nil {
		b.Fatal(err)
	}
	pkts := make([]traffic.Packet, n)
	for i := range pkts {
		pkts[i] = gen.Next()
	}
	return pkts
}

func benchRun(b *testing.B, src string, run func(*Machine, *traffic.Packet) error) {
	mod := compileB(b, "bench", src)
	m, err := New(mod, Config{Mode: HostMap})
	if err != nil {
		b.Fatal(err)
	}
	m.EnableCounters()
	pkts := benchPackets(b, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pkts[i%len(pkts)]
		if err := run(m, &p); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(m.Steps)/float64(b.N), "instrs/pkt")
}

func BenchmarkRunPacketNAT(b *testing.B)  { benchRun(b, natSrc, (*Machine).RunPacket) }
func BenchmarkRunPacketLoop(b *testing.B) { benchRun(b, benchLoopSrc, (*Machine).RunPacket) }

func BenchmarkRunPacketNATReference(b *testing.B) { benchRun(b, natSrc, (*Machine).RunReference) }
func BenchmarkRunPacketLoopReference(b *testing.B) {
	benchRun(b, benchLoopSrc, (*Machine).RunReference)
}
