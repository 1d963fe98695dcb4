// Differential suite for the step engine: every observable the
// interpreter exposes — Steps, fuel exhaustion, packet disposition and
// mutation, state counters, and post-run state inspection — must be
// bit-identical between RunPacket and the reference loop (reached through
// export_test.go) on identical packet streams, over the NF library and
// over the generated-program population the serving path sees. The tests
// live in an external package so they can drive the real NF library
// (internal/click imports interp). They keep the names they were first
// pinned under (TestCompiledBackendEquivalence*, FuzzCompiledExec): the
// "compiled backend" is today's step engine.
package interp_test

import (
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"clara/internal/click"
	"clara/internal/core"
	"clara/internal/interp"
	"clara/internal/ir"
	"clara/internal/synth"
	"clara/internal/traffic"
)

type runFunc func(*interp.Machine, *traffic.Packet) error

// observe runs pkts through a new machine for e and returns a full
// textual transcript of every observable. Two runs agree iff their
// transcripts are byte-equal, so a divergence report pinpoints the first
// differing packet or event.
func observe(tb testing.TB, e *click.Element, pkts []traffic.Packet, cfg interp.Config, hooked bool, run runFunc) string {
	tb.Helper()
	s, err := transcript(e, pkts, cfg, hooked, run)
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

// transcript is observe without a testing.TB, for goroutines that may only
// report errors.
func transcript(e *click.Element, pkts []traffic.Packet, cfg interp.Config, hooked bool, run runFunc) (string, error) {
	mod, err := e.Module()
	if err != nil {
		return "", fmt.Errorf("%s: %v", e.Name, err)
	}
	m, err := interp.New(mod, cfg)
	if err != nil {
		return "", fmt.Errorf("%s: %v", e.Name, err)
	}
	// Releasing after inspection hands the state slabs to whichever
	// machine is built next, so the equivalence sweep also runs every
	// program on state another program used.
	defer m.Release()
	if e.Setup != nil {
		if err := e.Setup(m); err != nil {
			return "", fmt.Errorf("%s setup: %v", e.Name, err)
		}
	}
	m.EnableCounters()
	var b strings.Builder
	if hooked {
		m.SetHooks(interp.Hooks{
			OnBlock: func(block int) { fmt.Fprintf(&b, "B%d ", block) },
			OnState: func(global int, store bool, addr uint64, block int) {
				fmt.Fprintf(&b, "S(%s,%v,%d,%d) ", mod.Globals[global].Name, store, addr, block)
			},
			OnAPI: func(api ir.API, global int, probes int, addr uint64, block int) {
				name := ""
				if global >= 0 {
					name = mod.Globals[global].Name
				}
				fmt.Fprintf(&b, "A(%s,%s,%d,%d,%d) ", ir.APIs[api].Name, name, probes, addr, block)
			},
		})
	}
	for i := range pkts {
		p := pkts[i]
		if len(p.Payload) > 0 {
			p.Payload = append([]byte(nil), p.Payload...)
		}
		err := run(m, &p)
		fmt.Fprintf(&b, "\npkt%d err=%v steps=%d out=%d csum=%v ttl=%d seq=%d ack=%d pay=%x",
			i, err, m.Steps, p.OutPort, p.CsumUpdated, p.TTL, p.Seq, p.Ack, p.Payload)
	}
	ctr := m.Counters()
	fmt.Fprintf(&b, "\nblock=%v\nstate=%v\napi=%v\n", ctr.Block, ctr.State, ctr.API)
	// Post-run state inspection: scalars exactly, aggregate shape for the
	// bulk structures (full array dumps would bloat the transcript
	// without adding discriminating power — stores already hook/count).
	for gi := range mod.Globals {
		g := mod.Globals[gi]
		switch g.Kind {
		case ir.GScalar:
			v, err := m.Scalar(g.Name)
			fmt.Fprintf(&b, "scalar %s=%d err=%v\n", g.Name, v, err)
		case ir.GArray:
			var sum uint64
			for i := 0; i < g.Len; i++ {
				v, err := m.ArrayAt(g.Name, i)
				if err != nil {
					return "", fmt.Errorf("%s array %s[%d]: %v", e.Name, g.Name, i, err)
				}
				sum += v ^ uint64(i)
			}
			fmt.Fprintf(&b, "array %s sum=%d\n", g.Name, sum)
		case ir.GMap:
			n, err := m.MapLen(g.Name)
			fi, _ := m.FailedInserts(g.Name)
			fmt.Fprintf(&b, "map %s len=%d failed=%d err=%v\n", g.Name, n, fi, err)
		case ir.GVec:
			n, err := m.VecLive(g.Name)
			d, _ := m.VecDropped(g.Name)
			fmt.Fprintf(&b, "vec %s live=%d dropped=%d err=%v\n", g.Name, n, d, err)
		}
	}
	return b.String(), nil
}

// diffLine locates the first divergent line of two transcripts.
func diffLine(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d:\n  ref: %s\n  cmp: %s", i, al[i], bl[i])
		}
	}
	return fmt.Sprintf("transcript lengths differ: %d vs %d lines", len(al), len(bl))
}

// equivCheck compares RunPacket against the reference loop. Without
// hooks that is the step engine against the oracle. With hooks RunPacket
// must itself take the reference loop — the step engine fires none — so
// the hooked comparison pins that routing: a machine that took the step
// engine anyway would leave the hook events out of its transcript.
func equivCheck(t *testing.T, e *click.Element, pkts []traffic.Packet, cfg interp.Config, hooked bool) {
	t.Helper()
	want := observe(t, e, pkts, cfg, hooked, (*interp.Machine).RunReference)
	got := observe(t, e, pkts, cfg, hooked, (*interp.Machine).RunPacket)
	if want != got {
		t.Errorf("%s: RunPacket diverges from the reference loop (hooked=%v):\n%s",
			e.Name, hooked, diffLine(want, got))
	}
}

var specs = []struct {
	name string
	spec traffic.Spec
}{
	{"small", traffic.SmallFlows},
	{"large", traffic.LargeFlows},
	{"mix", traffic.MediumMix},
}

// TestCompiledBackendEquivalence drives every library element under every
// standard traffic spec through RunPacket and the reference loop, with
// counters only (the step engine) and with full hooks (see equivCheck),
// and requires byte-identical transcripts.
func TestCompiledBackendEquivalence(t *testing.T) {
	const n = 160
	for _, e := range click.Library() {
		e := e
		for _, sp := range specs {
			pkts := traffic.MustTrace(sp.spec, n)
			for _, hooked := range []bool{false, true} {
				name := fmt.Sprintf("%s/%s/hooked=%v", e.Name, sp.name, hooked)
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					cfg := interp.Config{LPMTable: e.Routes}
					equivCheck(t, e, pkts, cfg, hooked)
				})
			}
		}
	}
}

// TestCompiledBackendEquivalenceFuel starves the machines so the ErrFuel
// path is exercised: the step engine must abort on exactly the same
// packet, with exactly the same Steps charged, as the reference.
func TestCompiledBackendEquivalenceFuel(t *testing.T) {
	pkts := traffic.MustTrace(traffic.MediumMix, 64)
	for _, fuel := range []int{1, 7, 33, 120} {
		fuel := fuel
		t.Run(fmt.Sprint(fuel), func(t *testing.T) {
			t.Parallel()
			for _, e := range click.Library() {
				cfg := interp.Config{LPMTable: e.Routes, Fuel: fuel}
				equivCheck(t, e, pkts, cfg, false)
			}
		})
	}
}

// TestCompiledBackendEquivalenceSynth extends the sweep from the library to the
// population the serving path actually compiles: the generated programs
// the unique-src benchmark workload submits (same profile, same seeds,
// same traffic rotation), with the default fuel and starved of it.
func TestCompiledBackendEquivalenceSynth(t *testing.T) {
	mods, err := click.Modules(click.Table2Order)
	if err != nil {
		t.Fatal(err)
	}
	prof := core.CorpusProfile(mods)
	var traces [3][]traffic.Packet
	for i := range traces {
		traces[i] = traffic.MustTrace(specs[i].spec, 48)
	}
	for p := 0; p < 300; p++ {
		e := &click.Element{
			Name: fmt.Sprintf("u%d", p),
			Src:  synth.Generate(synth.Config{Profile: prof, Seed: 1000003 + int64(p)}),
		}
		pkts := traces[p%3]
		for _, cfg := range []interp.Config{{}, {Fuel: 300}} {
			equivCheck(t, e, pkts, cfg, false)
		}
	}
}

// fuzzPackets decodes an arbitrary byte string into a packet stream:
// 28-byte chunks become header fields, the chunk tail becomes payload.
// Every decoded stream is legal input — the interpreter's contract is
// total — so the only property checked is agreement with the oracle.
func fuzzPackets(data []byte) []traffic.Packet {
	const rec = 28
	var pkts []traffic.Packet
	for off := 0; off+rec <= len(data) && len(pkts) < 48; off += rec {
		c := data[off : off+rec]
		p := traffic.Packet{
			Time:    uint64(len(pkts)) * 100,
			Len:     binary.LittleEndian.Uint16(c[0:]),
			EthType: binary.LittleEndian.Uint16(c[2:]),
			Proto:   c[4],
			TTL:     c[5],
			IPHL:    c[6],
			TCPFlag: c[7],
			SrcIP:   binary.LittleEndian.Uint32(c[8:]),
			DstIP:   binary.LittleEndian.Uint32(c[12:]),
			IPLen:   binary.LittleEndian.Uint16(c[16:]),
			SrcPort: binary.LittleEndian.Uint16(c[18:]),
			DstPort: binary.LittleEndian.Uint16(c[20:]),
			TCPOff:  c[22],
			Seq:     binary.LittleEndian.Uint32(c[23:]),
			OutPort: -2,
		}
		if n := int(c[27]) % 16; n > 0 {
			p.Payload = make([]byte, n)
			copy(p.Payload, data[off:])
		}
		pkts = append(pkts, p)
	}
	return pkts
}

// FuzzCompiledExec is the differential fuzz target: arbitrary packet
// streams through arbitrary library elements must yield identical
// transcripts (Steps, fuel, counters, packet mutations, final state) from
// RunPacket and the reference loop. Seeded with every library element so
// the corpus starts covering every step kind and every API.
func FuzzCompiledExec(f *testing.F) {
	lib := click.Library()
	base := traffic.MustTrace(traffic.MediumMix, 4)
	var seed []byte
	for i := range base {
		var c [28]byte
		p := &base[i]
		binary.LittleEndian.PutUint16(c[0:], p.Len)
		binary.LittleEndian.PutUint16(c[2:], p.EthType)
		c[4], c[5], c[6], c[7] = p.Proto, p.TTL, p.IPHL, p.TCPFlag
		binary.LittleEndian.PutUint32(c[8:], p.SrcIP)
		binary.LittleEndian.PutUint32(c[12:], p.DstIP)
		binary.LittleEndian.PutUint16(c[16:], p.IPLen)
		binary.LittleEndian.PutUint16(c[18:], p.SrcPort)
		binary.LittleEndian.PutUint16(c[20:], p.DstPort)
		c[22] = p.TCPOff
		binary.LittleEndian.PutUint32(c[23:], p.Seq)
		c[27] = byte(len(p.Payload))
		seed = append(seed, c[:]...)
	}
	for i := range lib {
		f.Add(uint8(i), uint8(i%4), seed)
	}
	f.Fuzz(func(t *testing.T, elem, mode uint8, data []byte) {
		e := lib[int(elem)%len(lib)]
		pkts := fuzzPackets(data)
		if len(pkts) == 0 {
			return
		}
		// Fuel is always capped: adversarial headers can drive loop-heavy
		// elements to the default 1M-step budget, which would throttle the
		// fuzzer to ~1 exec/s without exploring anything new. Equivalence
		// must hold at every budget, so a small one loses no coverage —
		// and mode&2 shrinks it further to hammer the mid-block abort path.
		cfg := interp.Config{LPMTable: e.Routes, Fuel: 4096}
		if mode&2 != 0 {
			cfg.Fuel = 24 + int(mode)
		}
		equivCheck(t, e, pkts, cfg, mode&1 != 0)
	})
}

// TestCompiledBackendEquivalenceNoArgCalls runs handlers whose only calls
// take no argument, some of them with no values, slots or constants at
// all: a packet setter step that read an operand cell would index past
// such a machine's registers.
func TestCompiledBackendEquivalenceNoArgCalls(t *testing.T) {
	pkts := traffic.MustTrace(traffic.MediumMix, 16)
	for i, src := range []string{
		"void handle() { pkt_drop(); }",
		"void handle() { pkt_csum_update(); }",
		"void handle() { pkt_csum_update(); pkt_drop(); }",
		"void handle() { pkt_send(pkt_len()); }",
		"global u32 n;\nvoid handle() { n += 1; pkt_csum_update(); pkt_drop(); }",
	} {
		e := &click.Element{Name: fmt.Sprintf("noarg%d", i), Src: src}
		for _, hooked := range []bool{false, true} {
			equivCheck(t, e, pkts, interp.Config{}, hooked)
		}
	}
}
