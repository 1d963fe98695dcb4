package lang_test

import (
	"testing"

	"clara/internal/analysis"
	"clara/internal/lang"
)

// TestLoweringLeavesNoUnreachableBlock: lowering creates no block that no
// path from the entry reaches, for every shape that used to leave one: code
// after an if/else whose arms both leave (return, break or continue), a
// post statement the loop body never falls through to, and a loop without
// a condition or a break.
func TestLoweringLeavesNoUnreachableBlock(t *testing.T) {
	for _, tc := range []struct {
		name, src string
		blocks    int
	}{
		{"if-else-return", `
global u32 hits;
void handle() {
	if (pkt_ip_proto() == 6) { pkt_send(0); return; } else { pkt_drop(); return; }
	u32 i = 0;
	while (i < 4) { hits += 1; i += 1; }
}`, 3},
		{"if-else-break-continue", `
void handle() {
	u32 i = 0;
	while (i < 8) {
		i += 1;
		if (pkt_ip_ttl() > u8(i)) { break; } else { continue; }
		pkt_drop();
	}
	pkt_send(0);
}`, 6},
		{"nested-if-else-return", `
void handle() {
	if (pkt_ip_proto() == 6) {
		if (pkt_ip_ttl() > 1) { pkt_send(0); return; } else { pkt_drop(); return; }
	} else {
		pkt_drop();
		return;
	}
	pkt_send(1);
}`, 5},
		{"body-always-returns", `
void handle() {
	for (u32 i = 0; i < 4; i += 1) { pkt_send(0); return; }
	pkt_drop();
}`, 4},
		{"for-ever", `
global u32 spins;
void handle() {
	for (;;) { spins += 1; }
	pkt_send(0);
}`, 3},
		{"for-ever-break", `
void handle() {
	u32 i = 0;
	for (;;) { i += 1; if (i > 3) { break; } }
	pkt_send(0);
}`, 6},
		{"inlined-if-else-return", `
u32 pick(u32 x) {
	if (x > 3) { return 1; } else { return 2; }
}
void handle() {
	pkt_send(pick(u32(pkt_ip_ttl())));
}`, 4},
	} {
		m, err := lang.Compile(tc.name, tc.src)
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		cfg := analysis.BuildCFG(m.Func)
		for _, b := range m.Func.Blocks {
			if !cfg.Reachable(b.Index) {
				t.Errorf("%s: block b%d (%s) is unreachable:\n%s", tc.name, b.Index, b.Name, m)
			}
		}
		if len(m.Func.Blocks) != tc.blocks {
			t.Errorf("%s: %d blocks, want %d:\n%s", tc.name, len(m.Func.Blocks), tc.blocks, m)
		}
	}
}
