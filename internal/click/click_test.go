package click

import (
	"testing"

	"clara/internal/interp"
	"clara/internal/ir"
	"clara/internal/traffic"
)

func TestAllElementsCompile(t *testing.T) {
	lib := Library()
	if len(lib) < 19 {
		t.Fatalf("library has %d elements, want >= 19", len(lib))
	}
	for _, e := range lib {
		m, err := e.Module()
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		if err := ir.Verify(m); err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		if e.LoC() < 10 {
			t.Errorf("%s: suspiciously small (%d LoC)", e.Name, e.LoC())
		}
		st := ir.ModuleStats(m)
		if st.Stateful != e.Stateful {
			t.Errorf("%s: Stateful flag %v but IR says %v", e.Name, e.Stateful, st.Stateful)
		}
	}
}

func TestTable2OrderComplete(t *testing.T) {
	if len(Table2Order) != 17 {
		t.Fatalf("Table 2 should list 17 elements, has %d", len(Table2Order))
	}
	for _, n := range Table2Order {
		if Get(n) == nil {
			t.Errorf("Table 2 element %q missing from registry", n)
		}
	}
	if _, err := Modules(Table2Order); err != nil {
		t.Fatal(err)
	}
	if _, err := Modules([]string{"nonesuch"}); err == nil {
		t.Error("unknown element accepted")
	}
}

// runElement executes an element over a workload in NIC-map mode.
func runElement(t *testing.T, name string, wl traffic.Spec, n int) (*interp.Machine, int, int) {
	t.Helper()
	e := Get(name)
	m, err := interp.New(e.MustModule(), interp.Config{LPMTable: e.Routes})
	if err != nil {
		t.Fatal(err)
	}
	if e.Setup != nil {
		if err := e.Setup(m); err != nil {
			t.Fatal(err)
		}
	}
	gen, err := traffic.NewGenerator(wl)
	if err != nil {
		t.Fatal(err)
	}
	sent, dropped := 0, 0
	for i := 0; i < n; i++ {
		p := gen.Next()
		if err := m.RunPacket(&p); err != nil {
			t.Fatalf("%s: packet %d: %v", name, i, err)
		}
		if p.Dropped() {
			dropped++
		} else {
			sent++
		}
	}
	return m, sent, dropped
}

func TestAllElementsProcessTraffic(t *testing.T) {
	wl := traffic.MediumMix
	for _, e := range Library() {
		m, sent, dropped := runElement(t, e.Name, wl, 300)
		if sent+dropped != 300 {
			t.Fatalf("%s: %d+%d packets", e.Name, sent, dropped)
		}
		_ = m
		if sent == 0 && e.Name != "firewall" {
			t.Errorf("%s: forwarded nothing on a generic mix", e.Name)
		}
	}
}

func TestMazuNATTranslatesAndTearsDown(t *testing.T) {
	m, sent, _ := runElement(t, "mazunat", traffic.LargeFlows, 2000)
	if sent == 0 {
		t.Fatal("NAT forwarded nothing")
	}
	tr, _ := m.Scalar("nat_translated")
	act, _ := m.Scalar("nat_active")
	if tr == 0 || act == 0 {
		t.Errorf("translated=%d active=%d", tr, act)
	}
	// Outbound packets from 192.168/16 got public sources.
	gen, _ := traffic.NewGenerator(traffic.LargeFlows)
	p := gen.Next()
	p.Proto = traffic.ProtoTCP
	p.TCPFlag = traffic.FlagSYN
	if err := m.RunPacket(&p); err != nil {
		t.Fatal(err)
	}
	if !p.Dropped() && (p.SrcIP>>16) != 0x0a01 {
		t.Errorf("outbound source not translated: %08x", p.SrcIP)
	}
}

func TestIPLookupMatchesLPMEngine(t *testing.T) {
	// The software trie and the hardware LPM table must agree on the
	// forwarding decision (same routes).
	soft := Get("iplookup")
	hard := Get("iplookup_lpm")
	ms, err := interp.New(soft.MustModule(), interp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := soft.Setup(ms); err != nil {
		t.Fatal(err)
	}
	mh, err := interp.New(hard.MustModule(), interp.Config{LPMTable: hard.Routes})
	if err != nil {
		t.Fatal(err)
	}
	gen, _ := traffic.NewGenerator(traffic.MediumMix)
	for i := 0; i < 500; i++ {
		p1 := gen.Next()
		p2 := p1
		p2.Payload = append([]byte(nil), p1.Payload...)
		if err := ms.RunPacket(&p1); err != nil {
			t.Fatal(err)
		}
		if err := mh.RunPacket(&p2); err != nil {
			t.Fatal(err)
		}
		if p1.OutPort != p2.OutPort {
			t.Fatalf("pkt %d (dst %08x): trie port %d != engine port %d",
				i, p1.DstIP, p1.OutPort, p2.OutPort)
		}
	}
}

func TestCMSketchVariantsAgreeOnHeaviness(t *testing.T) {
	// Both cmsketch variants count every packet.
	m1, _, _ := runElement(t, "cmsketch", traffic.LargeFlows, 500)
	m2, _, _ := runElement(t, "cmsketch_crc", traffic.LargeFlows, 500)
	t1, _ := m1.Scalar("cms_total")
	t2, _ := m2.Scalar("cms_total")
	if t1 != 500 || t2 != 500 {
		t.Errorf("totals %d/%d", t1, t2)
	}
}

func TestFirewallBlocksDeniedSources(t *testing.T) {
	m, _, dropped := runElement(t, "firewall", traffic.SmallFlows, 1500)
	deny, _ := m.Scalar("fw_deny")
	pass, _ := m.Scalar("fw_pass")
	nf, _ := m.Scalar("fw_newflow")
	if deny == 0 {
		t.Error("firewall denied nothing under a broad workload")
	}
	if pass+nf == 0 {
		t.Error("firewall admitted nothing")
	}
	if dropped == 0 {
		t.Error("no drops observed")
	}
}

func TestDNSProxyCachesAnswers(t *testing.T) {
	e := Get("dnsproxy")
	m, err := interp.New(e.MustModule(), interp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	mkQuery := func(qid uint16) traffic.Packet {
		return traffic.Packet{
			EthType: traffic.EthIPv4, Proto: traffic.ProtoUDP,
			SrcIP: 0xC0A80001, DstIP: 0x0A000001, SrcPort: 5555, DstPort: 53,
			Len: 128, IPLen: 114, IPHL: 5, OutPort: -2,
			Payload: []byte{byte(qid >> 8), byte(qid), 0x01, 0, 0, 1, 0, 0, 0, 0, 0, 0,
				3, 'w', 'w', 'w', 4, 't', 'e', 's', 't', 0},
		}
	}
	q := mkQuery(7)
	if err := m.RunPacket(&q); err != nil {
		t.Fatal(err)
	}
	if up, _ := m.Scalar("dns_upstream"); up != 1 {
		t.Fatalf("first query should go upstream, got %d", up)
	}
	// Upstream response for qid 7.
	resp := traffic.Packet{
		EthType: traffic.EthIPv4, Proto: traffic.ProtoUDP,
		SrcIP: 0x08080808, DstIP: 0x0A000001, SrcPort: 53, DstPort: 5555,
		Len: 128, IPLen: 114, IPHL: 5, OutPort: -2,
		Payload: []byte{0, 7, 0x81, 0x80, 0, 1, 0, 1, 0, 0, 0, 0},
	}
	if err := m.RunPacket(&resp); err != nil {
		t.Fatal(err)
	}
	// Same query again: cache hit.
	q2 := mkQuery(9)
	if err := m.RunPacket(&q2); err != nil {
		t.Fatal(err)
	}
	if hits, _ := m.Scalar("dns_cache_hits"); hits != 1 {
		t.Errorf("cache hits = %d, want 1", hits)
	}
	if q2.SrcPort != 53 {
		t.Errorf("cached answer source port = %d", q2.SrcPort)
	}
}

func TestGenRoutesAndInstallTrie(t *testing.T) {
	routes := GenRoutes(64, 5)
	if len(routes) != 64 {
		t.Fatalf("routes = %d", len(routes))
	}
	if routes[0].Len != 8 || routes[0].Prefix != 0x0A000000 {
		t.Error("first route should be the 10/8 cover")
	}
	// Determinism.
	again := GenRoutes(64, 5)
	for i := range routes {
		if routes[i] != again[i] {
			t.Fatal("GenRoutes not deterministic")
		}
	}
}

func TestTrieOverflowDetected(t *testing.T) {
	e := Get("iplookup")
	m, err := interp.New(e.MustModule(), interp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	// A capacity far too small must error, not corrupt.
	if err := InstallTrie(m, GenRoutes(512, 3), "trie_left", "trie_right", "trie_port", 16); err == nil {
		t.Error("trie overflow not detected")
	}
}

func TestDPIScalesWithPayload(t *testing.T) {
	big := traffic.MediumMix
	big.PayloadB = 512
	big.PktSize = 1024
	small := traffic.MediumMix
	small.PayloadB = 16
	mBig, _, _ := runElement(t, "dpi", big, 200)
	mSmall, _, _ := runElement(t, "dpi", small, 200)
	sb, _ := mBig.Scalar("scanned_bytes")
	ss, _ := mSmall.Scalar("scanned_bytes")
	if sb <= ss*4 {
		t.Errorf("scanned bytes big=%d small=%d", sb, ss)
	}
}
