package experiments

import (
	"fmt"
	"slices"
	"strings"

	"clara/internal/click"
	"clara/internal/ir"
	"clara/internal/isa"
	"clara/internal/nicsim"
	"clara/internal/stats"
	"clara/internal/synth"
	"clara/internal/traffic"
)

// Figure1 reproduces the motivation experiment: five NFs, each with two to
// four versions sharing the same core logic, whose latency varies by up to
// an order of magnitude with porting decisions and workloads.
func Figure1(ctx *Context) (*Table, error) {
	params := ctx.Cfg.Params
	cores := 16

	type variant struct {
		nf    string
		label string
		make  func() *nicsim.NF
		wl    traffic.Spec
		cores int // 0 = the default core count
	}
	wlDefault := traffic.MediumMix

	dpiBig := wlDefault
	dpiBig.PktSize, dpiBig.PayloadB = 1024, 800
	dpiSmall := wlDefault
	dpiSmall.PktSize, dpiSmall.PayloadB = 128, 64
	fwSmallFlows := traffic.SmallFlows
	hhSlow := wlDefault
	hhSlow.RatePps = 1e6
	hhFast := wlDefault

	variants := []variant{
		{"NAT", "csum-engine", func() *nicsim.NF {
			return elementNF("mazunat", func(nf *nicsim.NF) { nf.Accel.CsumEngine = true })
		}, wlDefault, 0},
		{"NAT", "csum-software", func() *nicsim.NF { return elementNF("mazunat", nil) }, wlDefault, 0},

		{"DPI", "small-pkts", func() *nicsim.NF { return elementNF("dpi", nil) }, dpiSmall, 0},
		{"DPI", "large-pkts", func() *nicsim.NF { return elementNF("dpi", nil) }, dpiBig, 0},

		{"FW", "state-IMEM", func() *nicsim.NF {
			return elementNF("firewall", func(nf *nicsim.NF) {
				nf.Placement = nicsim.Placement{"deny": isa.IMEM, "flows": isa.IMEM,
					"fw_pass": isa.CLS, "fw_deny": isa.CLS, "fw_newflow": isa.CLS}
			})
		}, wlDefault, 0},
		{"FW", "state-EMEM", func() *nicsim.NF { return elementNF("firewall", nil) }, wlDefault, 0},
		{"FW", "EMEM-manyflows", func() *nicsim.NF { return elementNF("firewall", nil) }, fwSmallFlows, 0},

		{"LPM", "flow-cache", func() *nicsim.NF {
			return elementNF("iplookup_lpm", func(nf *nicsim.NF) {
				nf.Accel.LPMEngine = true
				nf.Accel.FlowCache = true
				nf.Accel.CsumEngine = true
			})
		}, wlDefault, 0},
		{"LPM", "engine-only", func() *nicsim.NF {
			return elementNF("iplookup_lpm", func(nf *nicsim.NF) {
				nf.Accel.LPMEngine = true
				nf.Accel.CsumEngine = true
			})
		}, wlDefault, 0},
		{"LPM", "software-trie", func() *nicsim.NF { return elementNF("iplookup", nil) }, wlDefault, 0},

		{"HH", "low-rate", func() *nicsim.NF { return elementNF("cmsketch", nil) }, hhSlow, 8},
		{"HH", "line-rate", func() *nicsim.NF { return elementNF("cmsketch", nil) }, hhFast, 60},
	}

	t := &Table{
		ID:     "figure1",
		Title:  "Performance variability of five NFs across porting strategies/workloads",
		Header: []string{"NF", "variant", "latency(us)", "normalized"},
	}
	lat := map[string][]float64{}
	labels := map[string][]string{}
	order := []string{"NAT", "DPI", "FW", "LPM", "HH"}
	for _, v := range variants {
		c := cores
		if v.cores != 0 {
			c = v.cores
		}
		r, err := runNF(params, v.make(), v.wl, ctx.scale.tracePkts, c)
		if err != nil {
			return nil, fmt.Errorf("figure1 %s/%s: %w", v.nf, v.label, err)
		}
		lat[v.nf] = append(lat[v.nf], r.AvgLatencyUs)
		labels[v.nf] = append(labels[v.nf], v.label)
	}
	var maxRatio float64
	for _, nf := range order {
		best := slices.Min(lat[nf])
		for i, l := range lat[nf] {
			norm := l / best
			maxRatio = max(maxRatio, norm)
			t.AddRow(nf, labels[nf][i], f2(l), f2(norm)+"x")
		}
	}
	t.Notef("max variability %.1fx (paper: up to 13.8x)", maxRatio)
	return t, nil
}

// Table1 reproduces the data-synthesis fidelity measurement: distribution
// distances between real-corpus and synthesized instruction distributions,
// for the corpus-guided synthesizer (Clara) vs the unguided baseline.
func Table1(ctx *Context) (*Table, error) {
	mods, err := click.Modules(click.Table2Order)
	if err != nil {
		return nil, err
	}
	prof, err := synth.Calibrate(synth.ProfileFromModules(mods), ctx.scale.synthProbe, ctx.Cfg.Seed+7777)
	if err != nil {
		return nil, err
	}
	gen := func(p synth.Profile, seedOff int64) ([]*ir.Module, error) {
		var out []*ir.Module
		for i := 0; i < ctx.scale.synthPrograms; i++ {
			m, _, err := synth.GenerateModule(synth.Config{Profile: p, Seed: ctx.Cfg.Seed + seedOff + int64(i)})
			if err != nil {
				return nil, err
			}
			out = append(out, m)
		}
		return out, nil
	}
	guided, err := gen(prof, 50000)
	if err != nil {
		return nil, err
	}
	baseline, err := gen(synth.UniformProfile(), 90000)
	if err != nil {
		return nil, err
	}

	real := ir.OpcodeDistribution(mods)
	distG := ir.OpcodeDistribution(guided)
	distB := ir.OpcodeDistribution(baseline)

	t := &Table{
		ID:     "table1",
		Title:  "Synthesizer fidelity: instruction-distribution distance to the real corpus",
		Header: []string{"metric", "Clara", "baseline", "paper Clara", "paper baseline"},
	}
	type metric struct {
		name   string
		fn     func(p, q []float64) (float64, error)
		pc, pb string
	}
	metrics := []metric{
		{"Jensen-Shannon divergence", stats.JensenShannon, "0.0303", "0.1010"},
		{"Renyi divergence", stats.RenyiDefault, "0.1202", "0.4061"},
		{"Bhattacharyya distance", stats.Bhattacharyya, "0.0354", "0.1263"},
		{"Cosine distance", stats.Cosine, "0.0267", "0.1164"},
		{"Euclidean distance", stats.Euclidean, "0.0611", "0.1383"},
		{"Variational distance", stats.Variational, "0.3070", "0.6713"},
	}
	better := 0
	for _, m := range metrics {
		pv, gv := ir.AlignDistributions(real, distG)
		dg, err := m.fn(pv, gv)
		if err != nil {
			return nil, err
		}
		pv2, bv := ir.AlignDistributions(real, distB)
		db, err := m.fn(pv2, bv)
		if err != nil {
			return nil, err
		}
		if dg < db {
			better++
		}
		t.AddRow(m.name, f3(dg), f3(db), m.pc, m.pb)
	}
	t.Notef("guided synthesizer closer on %d/%d metrics (paper: 6/6)", better, len(metrics))
	return t, nil
}

// Table2 reproduces the element inventory: LoC, statefulness, compiled
// instruction mix, API call sites, and the insight classes that apply.
func Table2(ctx *Context) (*Table, error) {
	t := &Table{
		ID:     "table2",
		Title:  "Evaluated Click elements",
		Header: []string{"element", "LoC", "instr", "state", "mem", "API", "insights"},
	}
	for _, name := range click.Table2Order {
		e := click.Get(name)
		m, err := e.Module()
		if err != nil {
			return nil, err
		}
		st := ir.ModuleStats(m)
		stateful := " "
		if st.Stateful {
			stateful = "y"
		}
		t.AddRow(name,
			fmt.Sprintf("%d", e.LoC()),
			fmt.Sprintf("%d", st.Compute+st.LocalMem),
			stateful,
			fmt.Sprintf("%d", st.StateMem),
			fmt.Sprintf("%d", st.APICalls),
			strings.Join(e.Insights, ","))
	}
	return t, nil
}
