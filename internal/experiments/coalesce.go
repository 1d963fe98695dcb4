package experiments

import (
	"fmt"
	"math"
	"strings"

	"clara/internal/click"
	"clara/internal/core"
	"clara/internal/nicsim"
	"clara/internal/traffic"
)

// coalesceNFs are the four elements with extensive global-variable use
// evaluated by §5.6 and §5.8.
var coalesceNFs = []string{"aggcounter", "timefilter", "webtcp", "tcpgen"}

// coalesceMetric runs one pack plan and reports the cores needed to reach
// 95% of peak throughput plus the latency at that operating point.
func coalesceMetric(ctx *Context, name string, packs [][]string) (cores int, lat float64, err error) {
	rs, err := sweepNF(ctx.Cfg.Params, elementNF(name, func(nf *nicsim.NF) { nf.Packs = packs }),
		traffic.MediumMix, ctx.scale.tracePkts)
	if err != nil {
		return 0, 0, err
	}
	cores = nicsim.CoresToSaturate(rs, 0.95)
	for _, r := range rs {
		if r.Cores == cores {
			lat = r.AvgLatencyUs
		}
	}
	return cores, lat, nil
}

// packing is Clara's k-means pack plan for one element, from its host
// profile, and the plan's measured cost (figure13, figure16).
type packing struct {
	prof  *core.HostProfile
	packs [][]string
	cores int
	lat   float64
}

func claraPacking(ctx *Context, name string) (packing, error) {
	return stage(ctx.stages, "packs/"+name, func() (packing, error) {
		mod := click.Get(name).MustModule()
		prof, err := core.ProfileOnHost(mod, profileSetup(name), traffic.MediumMix, ctx.scale.profilePkts)
		if err != nil {
			return packing{}, err
		}
		p := packing{prof: prof, packs: core.SuggestPacks(mod, prof, core.CoalesceConfig{Seed: ctx.Cfg.Seed})}
		p.cores, p.lat, err = coalesceMetric(ctx, name, p.packs)
		return p, err
	})
}

// Figure13 reproduces the coalescing evaluation: cores-to-saturation and
// latency, naive vs Clara's k-means packing (§5.6: latency −42–68%, cores
// −25–55%).
func Figure13(ctx *Context) (*Table, error) {
	t := &Table{
		ID:     "figure13",
		Title:  "Memory access coalescing: naive vs Clara packing",
		Header: []string{"NF", "port", "cores-to-saturate", "latency(us)", "packs"},
	}
	for _, name := range coalesceNFs {
		nc, nl, err := coalesceMetric(ctx, name, nil)
		if err != nil {
			return nil, err
		}
		c, err := claraPacking(ctx, name)
		if err != nil {
			return nil, err
		}
		packs := make([]string, len(c.packs))
		for i, p := range c.packs {
			packs[i] = strings.Join(p, "+")
		}
		t.AddRow(name, "naive", fmt.Sprintf("%d", nc), f2(nl), "")
		t.AddRow(name, "Clara", fmt.Sprintf("%d", c.cores), f2(c.lat), strings.Join(packs, " | "))
		t.Notef("%s: latency %+.0f%%, cores %+.0f%%", name, 100*(c.lat-nl)/nl, 100*float64(c.cores-nc)/float64(nc))
	}
	t.Notef("paper: latency down 42–68%%, core counts down 25–55%%")
	return t, nil
}

// Figure16 reproduces the expert-emulation comparison for coalescing:
// Clara's clustering vs an exhaustive sweep over all pack partitions of
// the hottest variables (§5.8: the expert holds a small advantage).
func Figure16(ctx *Context) (*Table, error) {
	t := &Table{
		ID:     "figure16",
		Title:  "Coalescing: Clara(k-means) vs expert (exhaustive partitions)",
		Header: []string{"NF", "port", "cores-to-saturate", "latency(us)"},
	}
	for _, name := range coalesceNFs {
		c, err := claraPacking(ctx, name)
		if err != nil {
			return nil, err
		}

		// Expert: all partitions of the variables in the top-3 hottest
		// blocks (capped at 5 variables, as in §5.8 where "the total
		// number of variables is too large for an exhaustive analysis").
		hot := core.HotScalars(click.Get(name).MustModule(), c.prof, 3, 5)
		parts := core.Partitions(hot)
		if n := ctx.scale.expertPartitions; n > 0 && len(parts) > n {
			parts = parts[:n]
		}
		bestCores, bestLat := math.MaxInt32, math.Inf(1)
		for _, part := range parts {
			pc, plat, err := coalesceMetric(ctx, name, core.PacksFromPartition(part))
			if err != nil {
				return nil, err
			}
			if pc < bestCores || (pc == bestCores && plat < bestLat) {
				bestCores, bestLat = pc, plat
			}
		}
		t.AddRow(name, "Clara", fmt.Sprintf("%d", c.cores), f2(c.lat))
		t.AddRow(name, "expert", fmt.Sprintf("%d", bestCores), f2(bestLat))
	}
	t.Notef("paper: exhaustive tuning delivers a small advantage; Clara remains competitive")
	return t, nil
}
