package traffic

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

func TestTraceRoundTrip(t *testing.T) {
	pkts := MustTrace(MediumMix, 500)
	var buf bytes.Buffer
	if err := WriteTrace(&buf, pkts); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(pkts) {
		t.Fatalf("count %d != %d", len(got), len(pkts))
	}
	for i := range pkts {
		want := pkts[i]
		want.OutPort = -2
		want.CsumUpdated = false
		if len(want.Payload) == 0 {
			want.Payload = nil
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Fatalf("packet %d differs:\n got %+v\nwant %+v", i, got[i], want)
		}
	}
}

func TestTraceRejectsGarbage(t *testing.T) {
	if _, err := ReadTrace(strings.NewReader("not a trace at all")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := ReadTrace(strings.NewReader("")); err == nil {
		t.Error("empty input accepted")
	}
	// Truncation mid-record.
	pkts := MustTrace(MediumMix, 10)
	var buf bytes.Buffer
	if err := WriteTrace(&buf, pkts); err != nil {
		t.Fatal(err)
	}
	cut := buf.Bytes()[:buf.Len()-5]
	if _, err := ReadTrace(bytes.NewReader(cut)); err == nil {
		t.Error("truncated trace accepted")
	}
	// Version bump rejected.
	full := buf.Bytes()
	full[4] = 99
	if _, err := ReadTrace(bytes.NewReader(full)); err == nil {
		t.Error("future version accepted")
	}
}

func TestReplayerLoopsMonotonically(t *testing.T) {
	pkts := MustTrace(MediumMix, 20)
	r, err := NewReplayer(pkts)
	if err != nil {
		t.Fatal(err)
	}
	var last uint64
	seen := map[uint64]int{}
	for i := 0; i < 65; i++ {
		p := r.Next()
		if p.Time < last {
			t.Fatalf("time went backwards at %d", i)
		}
		last = p.Time
		seen[uint64(p.SrcIP)]++
		if p.OutPort != -2 {
			t.Fatal("disposition not reset")
		}
	}
	// The 20-packet trace looped three times: sources repeat.
	for _, n := range seen {
		if n >= 3 {
			return
		}
	}
	t.Error("no source repeated across loops")
}

func TestReplayerPayloadIsolation(t *testing.T) {
	pkts := MustTrace(MediumMix, 4)
	r, err := NewReplayer(pkts)
	if err != nil {
		t.Fatal(err)
	}
	p := r.Next()
	if len(p.Payload) == 0 {
		t.Skip("no payload in first packet")
	}
	p.Payload[0] ^= 0xFF
	// Replay the same packet on the next loop; it must be unmodified.
	for i := 0; i < len(pkts)-1; i++ {
		r.Next()
	}
	q := r.Next()
	if q.Payload[0] == p.Payload[0] {
		t.Error("replayed payload aliased a mutated buffer")
	}
}

func TestNewReplayerEmpty(t *testing.T) {
	if _, err := NewReplayer(nil); err == nil {
		t.Error("empty trace accepted")
	}
}

// TestReadTraceHeaderClaimBounded: a header-only file claiming the largest
// accepted packet count is refused at its first record, having allocated
// for the records it read, not for the ones it claimed (sizing from the
// claim reserved 80 B per packet, about 5 GiB here).
func TestReadTraceHeaderClaimBounded(t *testing.T) {
	var hdr [12]byte
	binary.LittleEndian.PutUint32(hdr[0:], traceMagic)
	binary.LittleEndian.PutUint32(hdr[4:], traceVersion)
	binary.LittleEndian.PutUint32(hdr[8:], maxTracePackets)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadTrace(bytes.NewReader(hdr[:]))
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "truncated record 0") {
		t.Fatalf("header-only trace: got %v, want a truncated-record-0 error", err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Errorf("header-only trace allocated %d bytes, want < 1 MB", alloc)
	}
}
