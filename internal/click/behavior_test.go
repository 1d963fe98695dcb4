package click

import (
	"testing"

	"clara/internal/interp"
	"clara/internal/traffic"
)

// Behavior tests: each element's semantics, not just "it runs".

func newMachine(t *testing.T, name string) *interp.Machine {
	t.Helper()
	e := Get(name)
	m, err := interp.New(e.MustModule(), interp.Config{Mode: interp.NICMap, LPMTable: e.Routes})
	if err != nil {
		t.Fatal(err)
	}
	if e.Setup != nil {
		if err := e.Setup(m); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

func tcpPkt(src, dst uint32, sport, dport uint16, flags uint8) traffic.Packet {
	return traffic.Packet{
		EthType: traffic.EthIPv4, Proto: traffic.ProtoTCP,
		SrcIP: src, DstIP: dst, SrcPort: sport, DstPort: dport,
		TCPFlag: flags, TCPOff: 5, IPHL: 5, IPLen: 114, Len: 128, TTL: 64,
		Seq: 1000, Ack: 0, OutPort: -2,
		Payload: []byte("GET /index.html HTTP/1.1\r\n"),
	}
}

func TestAnonIPAddrPreservesSlash8(t *testing.T) {
	m := newMachine(t, "anonipaddr")
	p := tcpPkt(0xC0A80505, 0x0A000001, 1234, 80, 0x10)
	if err := m.RunPacket(&p); err != nil {
		t.Fatal(err)
	}
	if p.SrcIP>>24 != 0xC0 || p.DstIP>>24 != 0x0A {
		t.Errorf("/8 not preserved: %08x %08x", p.SrcIP, p.DstIP)
	}
	if p.SrcIP == 0xC0A80505 {
		t.Error("source not anonymized")
	}
	if !p.CsumUpdated {
		t.Error("checksum not updated after rewrite")
	}
	// Same input anonymizes to the same output (deterministic keyed mix).
	q := tcpPkt(0xC0A80505, 0x0A000001, 1234, 80, 0x10)
	if err := m.RunPacket(&q); err != nil {
		t.Fatal(err)
	}
	if q.SrcIP != p.SrcIP {
		t.Error("anonymization not deterministic")
	}
}

func TestTCPAckComputesCumulativeAck(t *testing.T) {
	m := newMachine(t, "tcpack")
	p := tcpPkt(1, 2, 1000, 80, 0x10) // 128B frame, 20B IP, 20B TCP -> 74B segment
	p.Seq = 5000
	if err := m.RunPacket(&p); err != nil {
		t.Fatal(err)
	}
	seg := uint32(114 - 20 - 20)
	if p.Ack != 5000+seg {
		t.Errorf("ack = %d, want %d", p.Ack, 5000+seg)
	}
	// Addresses and ports swapped.
	if p.SrcIP != 2 || p.DstIP != 1 || p.SrcPort != 80 || p.DstPort != 1000 {
		t.Error("response not swapped")
	}
	// SYN consumes one extra sequence number.
	q := tcpPkt(1, 2, 1000, 80, 0x02)
	q.Seq = 7000
	if err := m.RunPacket(&q); err != nil {
		t.Fatal(err)
	}
	if q.Ack != 7000+seg+1 {
		t.Errorf("SYN ack = %d, want %d", q.Ack, 7000+seg+1)
	}
	// RSTs are dropped.
	r := tcpPkt(1, 2, 1000, 80, 0x04)
	if err := m.RunPacket(&r); err != nil {
		t.Fatal(err)
	}
	if !r.Dropped() {
		t.Error("RST not dropped")
	}
}

func TestTCPRespSynGetsSynAck(t *testing.T) {
	m := newMachine(t, "tcpresp")
	p := tcpPkt(0xC0A80001, 0x0A000002, 1234, 80, 0x02)
	if err := m.RunPacket(&p); err != nil {
		t.Fatal(err)
	}
	if p.TCPFlag != 0x12 {
		t.Errorf("flags = %02x, want SYN-ACK", p.TCPFlag)
	}
	if p.Ack != 1000+1 {
		t.Errorf("ack = %d, want ISN+1", p.Ack)
	}
	// Cookie ISNs are deterministic per 4-tuple.
	q := tcpPkt(0xC0A80001, 0x0A000002, 1234, 80, 0x02)
	q.Seq = 999999
	if err := m.RunPacket(&q); err != nil {
		t.Fatal(err)
	}
	if q.Seq != p.Seq {
		t.Error("cookie ISN not deterministic")
	}
}

func TestUDPIPEncapSetsTunnelHeaders(t *testing.T) {
	m := newMachine(t, "udpipencap")
	p := tcpPkt(0xC0A80001, 0x0A000002, 5555, 9999, 0x10)
	if err := m.RunPacket(&p); err != nil {
		t.Fatal(err)
	}
	if p.SrcIP != 0x0a000001 || p.DstIP != 0x0a0000fe {
		t.Errorf("tunnel endpoints wrong: %08x -> %08x", p.SrcIP, p.DstIP)
	}
	if p.DstPort != 4789 {
		t.Errorf("VXLAN-ish port = %d", p.DstPort)
	}
	if p.SrcPort < 4789 || p.SrcPort > 4789+15 {
		t.Errorf("entropy source port %d out of range", p.SrcPort)
	}
	if p.TTL != 64 {
		t.Errorf("TTL = %d", p.TTL)
	}
}

func TestForceTCPStripsIllegalFlagCombos(t *testing.T) {
	m := newMachine(t, "forcetcp")
	p := tcpPkt(1, 2, 1000, 80, 0x03) // SYN+FIN
	if err := m.RunPacket(&p); err != nil {
		t.Fatal(err)
	}
	if p.TCPFlag&0x01 != 0 {
		t.Errorf("FIN survived SYN+FIN: %02x", p.TCPFlag)
	}
	q := tcpPkt(1, 2, 0, 0, 0) // zero ports and flags get repaired
	if err := m.RunPacket(&q); err != nil {
		t.Fatal(err)
	}
	if q.Dropped() {
		t.Fatal("repairable packet dropped")
	}
	if q.SrcPort == 0 || q.DstPort == 0 || q.TCPFlag == 0 {
		t.Errorf("not repaired: sport=%d dport=%d flags=%02x", q.SrcPort, q.DstPort, q.TCPFlag)
	}
}

func TestTimeFilterRollsWindows(t *testing.T) {
	m := newMachine(t, "timefilter")
	p := tcpPkt(1, 2, 1, 2, 0x10)
	p.Time = 100
	if err := m.RunPacket(&p); err != nil {
		t.Fatal(err)
	}
	q := tcpPkt(1, 2, 1, 2, 0x10)
	q.Time = 100 + 3_000_000 // 3ms later: beyond the 1ms window
	if err := m.RunPacket(&q); err != nil {
		t.Fatal(err)
	}
	if rolled, _ := m.Scalar("windows_rolled"); rolled != 1 {
		t.Errorf("windows_rolled = %d, want 1", rolled)
	}
	if wp, _ := m.Scalar("win_pkts"); wp != 1 {
		t.Errorf("win_pkts = %d after roll, want 1", wp)
	}
}

func TestAggCounterAggregates(t *testing.T) {
	m := newMachine(t, "aggcounter")
	for i := 0; i < 10; i++ {
		p := tcpPkt(0xC0A80000|uint32(i), 2, 1, 2, 0x10)
		if err := m.RunPacket(&p); err != nil {
			t.Fatal(err)
		}
	}
	tot, _ := m.Scalar("total_pkts")
	if tot != 10 {
		t.Errorf("total_pkts = %d", tot)
	}
	bytes, _ := m.Scalar("total_bytes")
	if bytes != 10*128 {
		t.Errorf("total_bytes = %d", bytes)
	}
	// All ten sources share the /16, so one bucket holds all of them.
	bucket, _ := m.ArrayAt("agg_pkts", int((0xC0A80000>>16)&4095))
	if bucket != 10 {
		t.Errorf("bucket count = %d", bucket)
	}
	if mx, _ := m.Scalar("max_bucket"); mx != 10 {
		t.Errorf("max_bucket = %d", mx)
	}
}

func TestWepDecapDecryptsDeterministically(t *testing.T) {
	// Same IV and payload decrypt identically across machines; different
	// IVs produce different keystreams.
	run := func(iv uint32) []byte {
		m := newMachine(t, "wepdecap")
		p := tcpPkt(1, 2, 1, 2, 0x10)
		p.Seq = iv
		p.Payload = []byte("0123456789abcdef")
		if err := m.RunPacket(&p); err != nil {
			t.Fatal(err)
		}
		return append([]byte(nil), p.Payload...)
	}
	a1 := run(42)
	a2 := run(42)
	b := run(43)
	if string(a1) != string(a2) {
		t.Error("decryption not deterministic")
	}
	if string(a1) == string(b) {
		t.Error("different IVs produced identical keystreams")
	}
	if string(a1) == "0123456789abcdef" {
		t.Error("payload not transformed")
	}
}

func TestIPRewriterIsBidirectional(t *testing.T) {
	m := newMachine(t, "iprewriter")
	// Outbound flow learns a mapping.
	out := tcpPkt(0xC0A80001, 0x0B000001, 1111, 80, 0x02)
	if err := m.RunPacket(&out); err != nil {
		t.Fatal(err)
	}
	if out.Dropped() {
		t.Fatal("outbound dropped")
	}
	rewrittenDst := out.DstIP
	if rewrittenDst == 0x0B000001 {
		t.Fatal("destination not rewritten to the pool")
	}
	// Reply from the pool address maps back.
	in := tcpPkt(rewrittenDst, 0xC0A80001, 80, 1111, 0x12)
	if err := m.RunPacket(&in); err != nil {
		t.Fatal(err)
	}
	if in.SrcIP != 0x0B000001 {
		t.Errorf("reverse rewrite gave %08x, want original destination", in.SrcIP)
	}
}

func TestIPClassifierDropsBogons(t *testing.T) {
	m := newMachine(t, "ipclassifier")
	p := tcpPkt(0x7F000001, 2, 1, 80, 0x10) // 127/8 source
	if err := m.RunPacket(&p); err != nil {
		t.Fatal(err)
	}
	if !p.Dropped() {
		t.Error("loopback source not dropped")
	}
	if b, _ := m.Scalar("bogon_pkts"); b != 1 {
		t.Errorf("bogon_pkts = %d", b)
	}
	q := tcpPkt(0xC0A80001, 2, 1200, 443, 0x10)
	if err := m.RunPacket(&q); err != nil {
		t.Fatal(err)
	}
	if q.Dropped() {
		t.Error("HTTPS packet dropped")
	}
	if c, _ := m.ArrayAt("class_pkts", 2); c != 1 {
		t.Errorf("class 2 (443) count = %d", c)
	}
}

func TestWebGenTracksRTT(t *testing.T) {
	m := newMachine(t, "webgen")
	// Generate one request.
	p := tcpPkt(1, 2, 1, 2, 0x10)
	p.Time = 1000
	if err := m.RunPacket(&p); err != nil {
		t.Fatal(err)
	}
	if p.TCPFlag != 0x02 {
		t.Fatalf("generated packet not a SYN: %02x", p.TCPFlag)
	}
	reqDst, reqSport := p.DstIP, p.SrcPort
	// Synthesize the response.
	resp := tcpPkt(reqDst, 0xC0A80001, 80, reqSport, 0x10)
	resp.Time = 6000
	if err := m.RunPacket(&resp); err != nil {
		t.Fatal(err)
	}
	rtt, _ := m.Scalar("rtt_accum")
	if rtt != 5000 {
		t.Errorf("rtt_accum = %d, want 5000", rtt)
	}
	done, _ := m.ArrayAt("srv_done", int(reqDst&63))
	if done != 1 {
		t.Errorf("srv_done = %d", done)
	}
}

func TestDPIFlagsDirectoryTraversal(t *testing.T) {
	m := newMachine(t, "dpi")
	p := tcpPkt(1, 2, 1, 80, 0x10)
	p.Payload = []byte("GET /../etc/passwd")
	if err := m.RunPacket(&p); err != nil {
		t.Fatal(err)
	}
	if !p.Dropped() {
		t.Error("traversal signature not dropped")
	}
	q := tcpPkt(1, 2, 1, 80, 0x10)
	q.Payload = []byte("GET /index.html")
	if err := m.RunPacket(&q); err != nil {
		t.Fatal(err)
	}
	if q.Dropped() {
		t.Error("benign request dropped")
	}
}

func TestMazuNATMidStreamWithoutBindingDropped(t *testing.T) {
	m := newMachine(t, "mazunat")
	p := tcpPkt(0xC0A80001, 0x0A000001, 1234, 80, 0x10) // ACK, no binding
	if err := m.RunPacket(&p); err != nil {
		t.Fatal(err)
	}
	if !p.Dropped() {
		t.Error("mid-stream packet without binding forwarded")
	}
	// SYN creates the binding; the next ACK passes.
	syn := tcpPkt(0xC0A80001, 0x0A000001, 1234, 80, 0x02)
	if err := m.RunPacket(&syn); err != nil {
		t.Fatal(err)
	}
	ack := tcpPkt(0xC0A80001, 0x0A000001, 1234, 80, 0x10)
	if err := m.RunPacket(&ack); err != nil {
		t.Fatal(err)
	}
	if ack.Dropped() {
		t.Error("bound flow dropped")
	}
	if ack.SrcIP>>16 != 0x0a01 {
		t.Errorf("source not translated: %08x", ack.SrcIP)
	}
}

func TestDedupDropsDuplicates(t *testing.T) {
	m := newMachine(t, "dedup")
	p := tcpPkt(1, 2, 10, 80, 0x10)
	p.Seq = 42
	if err := m.RunPacket(&p); err != nil {
		t.Fatal(err)
	}
	if p.Dropped() {
		t.Fatal("first occurrence dropped")
	}
	q := tcpPkt(1, 2, 10, 80, 0x10)
	q.Seq = 42
	if err := m.RunPacket(&q); err != nil {
		t.Fatal(err)
	}
	if !q.Dropped() {
		t.Fatal("duplicate not dropped")
	}
	if d, _ := m.Scalar("dup_drops"); d != 1 {
		t.Errorf("dup_drops = %d", d)
	}
	// Distinct signatures pass.
	r := tcpPkt(1, 2, 10, 80, 0x10)
	r.Seq = 43
	if err := m.RunPacket(&r); err != nil {
		t.Fatal(err)
	}
	if r.Dropped() {
		t.Error("distinct signature dropped")
	}
}

func TestDedupEvictsWhenFull(t *testing.T) {
	m := newMachine(t, "dedup")
	for i := uint32(0); i < 45; i++ {
		p := tcpPkt(100+i, 2, 10, 80, 0x10)
		p.Seq = i
		if err := m.RunPacket(&p); err != nil {
			t.Fatal(err)
		}
	}
	if ev, _ := m.Scalar("evictions"); ev == 0 {
		t.Error("no evictions at capacity")
	}
	if live, _ := m.VecLive("recent"); live > 48 {
		t.Errorf("vector live = %d beyond capacity", live)
	}
}

func TestTokenBucketPolices(t *testing.T) {
	m := newMachine(t, "tokenbucket")
	// Exhaust the burst with back-to-back packets at t=1.
	drops, sends := 0, 0
	for i := 0; i < 2000; i++ {
		p := tcpPkt(1, 2, 10, 80, 0x10)
		p.Time = 1
		if err := m.RunPacket(&p); err != nil {
			t.Fatal(err)
		}
		if p.Dropped() {
			drops++
		} else {
			sends++
		}
	}
	if drops == 0 {
		t.Fatal("bucket never exhausted")
	}
	if sends == 0 {
		t.Fatal("nothing conformed")
	}
	// After a long quiet period the bucket refills.
	p := tcpPkt(1, 2, 10, 80, 0x10)
	p.Time = 1_000_000_000
	if err := m.RunPacket(&p); err != nil {
		t.Fatal(err)
	}
	if p.Dropped() {
		t.Error("packet after refill dropped")
	}
}

func TestECMPSpreadsAndRespectsHealth(t *testing.T) {
	m := newMachine(t, "ecmp")
	used := map[int32]bool{}
	for i := uint32(0); i < 200; i++ {
		p := tcpPkt(0xC0A80000+i*7, 0x0A000001+i, 10, 80, 0x10)
		if err := m.RunPacket(&p); err != nil {
			t.Fatal(err)
		}
		if p.Dropped() {
			t.Fatal("flow dropped with healthy backends")
		}
		if p.DstIP>>16 != 0x0a03 {
			t.Fatalf("not rewritten to a backend: %08x", p.DstIP)
		}
		b := int32(p.DstIP & 15)
		if b >= 12 {
			t.Fatalf("flow sent to unhealthy backend %d", b)
		}
		used[b] = true
	}
	if len(used) < 6 {
		t.Errorf("poor spread: only %d backends used", len(used))
	}
	// Flows are sticky: same 5-tuple, same backend.
	a := tcpPkt(0xC0A80001, 0x0A000002, 10, 80, 0x10)
	b := tcpPkt(0xC0A80001, 0x0A000002, 10, 80, 0x10)
	if err := m.RunPacket(&a); err != nil {
		t.Fatal(err)
	}
	if err := m.RunPacket(&b); err != nil {
		t.Fatal(err)
	}
	if a.DstIP != b.DstIP {
		t.Error("flow not sticky")
	}
	// Mark a backend down via a control packet; traffic avoids it.
	target := a.DstIP & 15
	ctrl := tcpPkt(target, 0, 0, 0, 0)
	ctrl.Proto = 253
	ctrl.TTL = 0
	if err := m.RunPacket(&ctrl); err != nil {
		t.Fatal(err)
	}
	c := tcpPkt(0xC0A80001, 0x0A000002, 10, 80, 0x10)
	if err := m.RunPacket(&c); err != nil {
		t.Fatal(err)
	}
	if c.DstIP == a.DstIP {
		t.Error("flow still sent to downed backend")
	}
}
