package interp_test

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"clara/internal/click"
	"clara/internal/interp"
	"clara/internal/traffic"
)

// nicSemanticsHash is the sha256 TestNICSemanticsPinned expects. It moves
// only when what a program observes of its state does: a map or vector
// operation's result, its probe count or address, a bucket that fills or a
// delete that tombstones differently.
const nicSemanticsHash = "3a32f5efc0b0d0a640ca82fe33155b78baf8e4e45d0c9bb82d7bae42ad2d184f"

// churnSrc inserts, removes and looks up keys from a small key space in a
// four-bucket map, and pushes, deletes and overwrites vector slots, so
// buckets fill, inserts are dropped and probe chains run over tombstones.
const churnSrc = `
map<u64,u64> tbl[16];
vec<u64> v[8];
global u64 out;
void handle() {
	u64 k = u64(pkt_ip_src() & 31);
	u32 op = pkt_ip_dst() & 7;
	if (op < 3) {
		map_insert(tbl, k, u64(pkt_tcp_seq()));
	} else if (op < 5) {
		map_remove(tbl, k);
	} else {
		out += map_find(tbl, k) + u64(map_contains(tbl, k)) + u64(map_size(tbl));
	}
	u32 i = pkt_ip_src() & 7;
	if (op == 0 || op == 3) {
		vec_delete(v, i);
	} else if (op == 6) {
		vec_set(v, i, k);
	} else {
		vec_push(v, k);
	}
	out += vec_get(v, i) + u64(vec_len(v));
	pkt_send(0);
}
`

// TestNICSemanticsPinned pins the map and vector semantics: one sha256 over
// the hooked transcript (every block, state access and API event with its
// probes and address, then the final state) of each library element under
// the small, large and mix workloads, of every apiProgram and of churnSrc. The
// differential suite cannot catch a change in mapOp or vecOp, since the
// step engine and the reference loop both call them; this pin can.
func TestNICSemanticsPinned(t *testing.T) {
	h := sha256.New()
	put := func(name string, e *click.Element, pkts []traffic.Packet, cfg interp.Config) {
		s, err := transcript(e, pkts, cfg, true, (*interp.Machine).RunPacket)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%s\x00%s\x00", name, s)
	}
	for _, e := range click.Library() {
		for _, sp := range specs {
			put(e.Name+"/"+sp.name, e, traffic.MustTrace(sp.spec, 160), interp.Config{LPMTable: e.Routes})
		}
	}
	pkts := traffic.MustTrace(traffic.MediumMix, 24)
	for _, name := range interp.APINames() {
		src, err := apiProgram(name)
		if err != nil {
			t.Fatal(err)
		}
		put(name, &click.Element{Name: "api_" + name, Src: src}, pkts, interp.Config{LPMTable: apiRoutes})
	}
	put("churn", &click.Element{Name: "churn", Src: churnSrc}, traffic.MustTrace(traffic.SmallFlows, 400), interp.Config{})
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != nicSemanticsHash {
		t.Errorf("NIC map/vector semantics moved: sha256 %s, want %s", got, nicSemanticsHash)
	}
}
