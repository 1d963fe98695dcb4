package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"

	"clara"
	"clara/internal/analysis"
	"clara/internal/ir"
	"clara/internal/server"
)

// canonical is an Insights as canonical JSON: encoding/json writes struct
// fields in declaration order and map keys sorted, and every field
// round-trips exactly, so two Insights are equal iff these bytes are —
// whether they came out of a Fleet or back through a server's JSON.
func canonical(ins *clara.Insights) []byte {
	b, err := json.Marshal(ins)
	if err != nil {
		return []byte("unmarshalable: " + err.Error())
	}
	return b
}

// digest hashes insights in job order. Elapsed time and cache_hit are not
// part of an Insights, so the digest repeats exactly between runs of the
// same code and seed.
type digest struct{ h hash.Hash }

func newDigest() *digest                  { return &digest{sha256.New()} }
func (d *digest) add(ins *clara.Insights) { d.h.Write(canonical(ins)); d.h.Write([]byte{'\n'}) }
func (d *digest) sum() string             { return hex.EncodeToString(d.h.Sum(nil)) }

// verifyJob checks one job's reply against the harness's own run of the
// pipeline and against the invariants any Insights must satisfy.
func verifyJob(j job, mod *ir.Module, r result, want *clara.Insights, tool *clara.Tool) []string {
	var bad []string
	failf := func(format string, args ...any) { bad = append(bad, fmt.Sprintf(format, args...)) }
	ins := r.insights
	if got, exp := canonical(ins), canonical(want); !bytes.Equal(got, exp) {
		failf("door and pipeline insights differ:\n door     %.300s\n pipeline %.300s", got, exp)
	}
	wl := traffics[j.wl].spec.Name
	if r.name != j.name || r.workload != wl || ins.NF != j.name || ins.Workload != wl {
		failf("echoed %s/%s (insights %s/%s), sent %s/%s", r.name, r.workload, ins.NF, ins.Workload, j.name, wl)
	}
	if ins.Prediction == nil || len(ins.Prediction.Blocks) != len(mod.Handler().Blocks) {
		failf("prediction does not cover the handler's %d blocks", len(mod.Handler().Blocks))
	}
	if ins.SuggestedCores < 1 || ins.SuggestedCores > tool.Params.NumCores {
		failf("suggested cores %d outside 1..%d", ins.SuggestedCores, tool.Params.NumCores)
	}
	// Every global placed in exactly one region (Placement is a map, so at
	// most one), and no region over capacity.
	used := map[clara.Region]int{}
	for _, g := range mod.Globals {
		reg, ok := ins.Placement[g.Name]
		if !ok {
			failf("global %s not placed", g.Name)
		}
		used[reg] += g.SizeBytes()
	}
	if len(ins.Placement) != len(mod.Globals) {
		failf("placement names %d globals, module has %d", len(ins.Placement), len(mod.Globals))
	}
	for reg, n := range used { // order-insensitive: each region is checked on its own
		if n > tool.Params.Regions[reg].Capacity {
			failf("region %s holds %d bytes, capacity %d", reg, n, tool.Params.Regions[reg].Capacity)
		}
	}
	packed := map[string]bool{}
	for _, pack := range ins.Packs {
		for _, g := range pack {
			if mod.Global(g) == nil || packed[g] {
				failf("pack member %s is not a global of the module, or is packed twice", g)
			}
			packed[g] = true
		}
	}
	if j.elem != nil {
		for _, d := range ins.Diagnostics {
			if d.Severity == analysis.SevError {
				failf("library element has an error diagnostic: %s", d)
			}
		}
	}
	return bad
}

// crossDoorJobs go through all three doors; between them they have every
// kind of state (none, arrays, maps, LPM routes) and every traffic.
var crossDoorJobs = []struct {
	nf string
	wl int
}{{"tcpack", 0}, {"mazunat", 1}, {"cmsketch", 2}, {"iplookup", 0}, {"firewall", 1}, {"dnsproxy", 2}}

// crossDoor sends the same jobs through the fleet, a server and a
// coordinator; the three must give byte-identical insights.
func crossDoor(tool *clara.Tool, hash string) []string {
	gen := func(i int) (server.AnalyzeRequest, []job) {
		c := crossDoorJobs[i]
		return server.AnalyzeRequest{NF: c.nf, Workload: traffics[c.wl].name},
			[]job{{name: c.nf, elem: clara.GetElement(c.nf), wl: c.wl}}
	}
	srv, err := openServer(tool, hash, gen)
	if err != nil {
		return []string{"cross-door: " + err.Error()}
	}
	defer srv.close()
	coord, err := openCluster(tool, hash, gen)
	if err != nil {
		return []string{"cross-door: " + err.Error()}
	}
	defer coord.close()
	fl, err := clara.NewFleet(tool, clara.FleetConfig{})
	if err != nil {
		return []string{"cross-door: " + err.Error()}
	}
	var bad []string
	for i, c := range crossDoorJobs {
		e := clara.GetElement(c.nf)
		mod, err := e.Module()
		if err != nil {
			return []string{"cross-door: " + err.Error()}
		}
		res, err := fl.Run([]clara.FleetJob{{Name: e.Name, Mod: mod, WL: traffics[c.wl].spec,
			PS: clara.ProfileSetup{Setup: e.Setup, LPMTable: e.Routes}}})
		if err != nil || res[0].Err != nil {
			return []string{fmt.Sprintf("cross-door fleet %s: %v %v", c.nf, err, res[0].Err)}
		}
		want := canonical(res[0].Insights)
		for _, d := range []struct {
			name string
			d    door
		}{{"server", srv}, {"coordinator", coord}} {
			rep, err := d.d.send(i, true)
			if err != nil {
				bad = append(bad, fmt.Sprintf("cross-door %s %s: %v", d.name, c.nf, err))
			} else if !bytes.Equal(canonical(rep.results[0].insights), want) {
				bad = append(bad, fmt.Sprintf("cross-door: %s/%s differs between fleet and %s", c.nf, traffics[c.wl].name, d.name))
			}
		}
	}
	return bad
}
