package analysis_test

import (
	"encoding/json"
	"testing"

	"clara/internal/analysis"
	"clara/internal/click"
	"clara/internal/lang"
)

// FuzzLint drives the full parse→lower→CFG→slot SSA→lint pipeline on
// arbitrary source. The contract under fuzzing: never panic, never loop
// forever (the range solver widens, the trip-count inference walks finite
// structures), the slot SSA is well formed (CheckSSA), and every produced
// diagnostic list is sorted and JSON round-trippable. Seeded with all stock click elements so the corpus
// starts from every loop/map/call shape the library exercises, plus the
// known-offender fixtures.
func FuzzLint(f *testing.F) {
	for _, e := range click.Library() {
		f.Add(e.Src)
	}
	for _, fx := range lintFixtures {
		f.Add(fx.src)
	}
	f.Add("void handle() { while (true) {} }")
	f.Add("void handle() { for (u32 i = 0; i < pkt_ip_src(); i += 1) {} pkt_send(0); }")
	cfg := analysis.DefaultConfig()
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<16 {
			return // pathological sizes time out lowering, not crash it
		}
		ds, err := analysis.LintSource("fuzz", src, cfg)
		if err != nil {
			return // malformed source is the caller's problem, not a crash
		}
		for i, d := range ds {
			if d.Rule == "" {
				t.Errorf("diagnostic %d has no rule: %+v", i, d)
			}
			if d.Severity != analysis.SevError && d.Severity != analysis.SevWarning && d.Severity != analysis.SevInfo {
				t.Errorf("diagnostic %d has bad severity: %+v", i, d)
			}
			if i > 0 {
				p := ds[i-1]
				if p.Line > d.Line || (p.Line == d.Line && p.Col > d.Col) {
					t.Errorf("diagnostics not sorted by position at %d: %v", i, ds)
				}
				if p.Line == d.Line && p.Col == d.Col && p.Rule == d.Rule &&
					p.Fn == d.Fn && p.Msg == d.Msg {
					t.Errorf("duplicate diagnostic survived dedup at %d: %v", i, ds)
				}
			}
		}
		if m, err := lang.Compile("fuzz", src); err == nil {
			if err := analysis.CheckSSA(m); err != nil {
				t.Fatalf("slot SSA ill-formed: %v", err)
			}
		}
		blob, err := json.Marshal(ds)
		if err != nil {
			t.Fatalf("diagnostics not marshalable: %v", err)
		}
		var back []analysis.Diagnostic
		if err := json.Unmarshal(blob, &back); err != nil {
			t.Fatalf("diagnostics not unmarshalable: %v\n%s", err, blob)
		}
	})
}
