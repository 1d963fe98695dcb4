package interp_test

import (
	"fmt"
	"strings"
	"testing"

	"clara/internal/click"
	"clara/internal/interp"
	"clara/internal/ir"
	"clara/internal/lang"
	"clara/internal/traffic"
)

// apiProgram is a handler that calls one framework API with arguments
// taken from the packet and keeps any result in a global.
func apiProgram(name string) (string, error) {
	in, ok := lang.Intrinsics[name]
	if !ok {
		return "", fmt.Errorf("the interpreter implements %q, which the language does not declare", name)
	}
	var args []string
	if in.TakesMap {
		if strings.HasPrefix(name, "vec_") {
			args = append(args, "v")
		} else {
			args = append(args, "tbl")
		}
	}
	for i, ty := range in.Params {
		field := []string{"pkt_ip_src() & 7", "pkt_ip_dst() & 15"}[i]
		args = append(args, fmt.Sprintf("%s(%s)", ty, field))
	}
	call := name + "(" + strings.Join(args, ", ") + ")"
	if in.Ret != ir.Void {
		call = "out = u64(" + call + ")"
	}
	return `
map<u64,u64> tbl[16];
vec<u64> v[8];
global u64 out;
void handle() {
	` + call + `;
	pkt_send(0);
}
`, nil
}

// TestEveryAPIRuns calls every API the interpreter implements, alone in a
// handler, under both map semantics. Machine.call cannot fail, so none may
// panic, and RunPacket must agree with the reference loop on the whole
// transcript, hooked and not.
func TestEveryAPIRuns(t *testing.T) {
	pkts := traffic.MustTrace(traffic.MediumMix, 24)
	routes := []interp.Route{{Prefix: 0x0a000000, Len: 8, Port: 1}, {Prefix: 0, Len: 0, Port: 2}}
	for _, name := range interp.APINames() {
		src, err := apiProgram(name)
		if err != nil {
			t.Fatal(err)
		}
		e := &click.Element{Name: "api_" + name, Src: src}
		for _, mode := range []interp.MapMode{interp.HostMap, interp.NICMap} {
			for _, hooked := range []bool{false, true} {
				equivCheck(t, e, pkts, interp.Config{Mode: mode, LPMTable: routes}, hooked)
			}
		}
	}
}
