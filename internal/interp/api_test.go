package interp_test

import (
	"fmt"
	"strings"
	"testing"

	"clara/internal/click"
	"clara/internal/interp"
	"clara/internal/ir"
	"clara/internal/traffic"
)

// apiProgram is a handler that calls one framework API with arguments
// taken from the packet and keeps any result in a global.
func apiProgram(name string) (string, error) {
	api, ok := ir.LookupAPI(name)
	if !ok {
		return "", fmt.Errorf("%q is not a framework API", name)
	}
	in := &ir.APIs[api]
	var args []string
	switch in.State {
	case ir.GMap:
		args = append(args, "tbl")
	case ir.GVec:
		args = append(args, "v")
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

// apiRoutes backs lpm_hw in the apiProgram handlers.
var apiRoutes = []interp.Route{{Prefix: 0x0a000000, Len: 8, Port: 1}, {Prefix: 0, Len: 0, Port: 2}}

// TestEveryAPIRuns calls every framework API, alone in a handler. Machine.call cannot fail, so none may
// panic, and RunPacket must agree with the reference loop on the whole
// transcript, hooked and not.
func TestEveryAPIRuns(t *testing.T) {
	pkts := traffic.MustTrace(traffic.MediumMix, 24)
	for _, name := range interp.APINames() {
		src, err := apiProgram(name)
		if err != nil {
			t.Fatal(err)
		}
		e := &click.Element{Name: "api_" + name, Src: src}
		for _, hooked := range []bool{false, true} {
			equivCheck(t, e, pkts, interp.Config{LPMTable: apiRoutes}, hooked)
		}
	}
}
