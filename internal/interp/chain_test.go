package interp_test

import (
	"errors"
	"fmt"
	"testing"

	"clara/internal/click"
	"clara/internal/core"
	"clara/internal/interp"
	"clara/internal/synth"
	"clara/internal/traffic"
)

// TestChainFuelBoundary runs packets out of fuel inside superblocks, where
// the step engine stops charging a chain whole and hands it to the
// reference loop at its head. For every chain of two or more blocks the
// packet stream executes, at the first packet that enters it, one budget
// per inner block makes that packet run out exactly there; every packet
// before it runs on the default budget, so it reaches the chain along the
// same path. RunPacket and the reference loop must agree on the whole
// transcript — ErrFuel, the packet it hits, Steps, block and state
// counters, packet and state mutations — with counters and without. The
// library runs under every traffic spec, and so do the 300 generated
// programs of the unique-src workload.
func TestChainFuelBoundary(t *testing.T) {
	for _, e := range click.Library() {
		e := e
		for _, sp := range specs {
			pkts := traffic.MustTrace(sp.spec, 16)
			t.Run(e.Name+"/"+sp.name, func(t *testing.T) {
				t.Parallel()
				chainFuelCheck(t, e, pkts, interp.Config{Mode: interp.NICMap, LPMTable: e.Routes})
			})
		}
	}
	t.Run("synth", func(t *testing.T) {
		t.Parallel()
		mods, err := click.Modules(click.Table2Order)
		if err != nil {
			t.Fatal(err)
		}
		prof := core.CorpusProfile(mods)
		var traces [3][]traffic.Packet
		for i := range traces {
			traces[i] = traffic.MustTrace(specs[i].spec, 6)
		}
		for p := 0; p < 300; p++ {
			e := &click.Element{
				Name: fmt.Sprintf("u%d", p),
				Src:  synth.Generate(synth.Config{Profile: prof, Seed: 1000003 + int64(p)}),
			}
			chainFuelCheck(t, e, traces[p%3], interp.Config{Mode: interp.NICMap})
		}
	})
}

// budget is a fuel budget for packet pkt that runs out inside a chain.
type budget struct{ pkt, fuel int }

// chainFuelCheck derives e's in-chain budgets from a reference run and
// holds the step engine to the reference loop under each.
func chainFuelCheck(t *testing.T, e *click.Element, pkts []traffic.Packet, cfg interp.Config) {
	t.Helper()
	bs, err := chainBudgets(e, pkts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range bs {
		stream := pkts[:b.pkt+1]
		for _, counting := range []bool{true, false} {
			var refErr error
			ref := fuelSchedule(b, &refErr, interp.Uncounted((*interp.Machine).RunReference))
			got := fuelSchedule(b, new(error), interp.Uncounted((*interp.Machine).RunPacket))
			if counting {
				ref = fuelSchedule(b, &refErr, (*interp.Machine).RunReference)
				got = fuelSchedule(b, new(error), (*interp.Machine).RunPacket)
			}
			want := observe(t, e, stream, cfg, false, ref)
			if !errors.Is(refErr, interp.ErrFuel) {
				t.Fatalf("%s: budget %d on packet %d does not run out (err %v)", e.Name, b.fuel, b.pkt, refErr)
			}
			if have := observe(t, e, stream, cfg, false, got); have != want {
				t.Errorf("%s: budget %d on packet %d, counting=%v: RunPacket diverges from the reference loop:\n%s",
					e.Name, b.fuel, b.pkt, counting, diffLine(want, have))
			}
		}
	}
}

// fuelSchedule runs packet b.pkt, the stream's last, on b.fuel and the
// packets before it on the machine's own budget, recording the budgeted
// packet's error in last.
func fuelSchedule(b budget, last *error, run runFunc) runFunc {
	i := 0
	return func(m *interp.Machine, p *traffic.Packet) error {
		if i == b.pkt {
			m.SetFuel(b.fuel)
		}
		err := run(m, p)
		if i == b.pkt {
			*last = err
		}
		i++
		return err
	}
}

// chainBudgets replays pkts through the reference loop, cuts each packet's
// block sequence into the chains the step engine runs it as, and returns,
// for the first packet entering each multi-block chain, the budgets that
// leave the k-th block of that chain one step short of its size.
func chainBudgets(e *click.Element, pkts []traffic.Packet, cfg interp.Config) ([]budget, error) {
	mod, err := e.Module()
	if err != nil {
		return nil, err
	}
	chains, err := interp.Chains(mod)
	if err != nil {
		return nil, err
	}
	byRoot := map[int][]int{}
	for _, c := range chains {
		byRoot[c[0]] = c
	}
	size := func(b int) int { return len(mod.Handler().Blocks[b].Instrs) }

	m, err := interp.New(mod, cfg)
	if err != nil {
		return nil, err
	}
	defer m.Release()
	if e.Setup != nil {
		if err := e.Setup(m); err != nil {
			return nil, err
		}
	}
	var seq []int
	m.SetHooks(interp.Hooks{OnBlock: func(b int) { seq = append(seq, b) }})
	var out []budget
	seen := map[int]bool{}
	for i := range pkts {
		p := pkts[i]
		p.Payload = append([]byte(nil), p.Payload...)
		seq = seq[:0]
		if err := m.RunPacket(&p); err != nil {
			return nil, fmt.Errorf("%s: packet %d: %v", e.Name, i, err)
		}
		used := 0
		for pos := 0; pos < len(seq); {
			c := byRoot[seq[pos]]
			if c == nil || pos+len(c) > len(seq) {
				return nil, fmt.Errorf("%s: packet %d enters block %d at %d, which heads no chain it completes", e.Name, i, seq[pos], pos)
			}
			for k, b := range c {
				if seq[pos+k] != b {
					return nil, fmt.Errorf("%s: packet %d leaves chain %v at block %d", e.Name, i, c, seq[pos+k])
				}
			}
			if len(c) > 1 && !seen[c[0]] {
				seen[c[0]] = true
				before := used
				for k, b := range c {
					if k > 0 {
						out = append(out, budget{pkt: i, fuel: before + size(b) - 1})
					}
					before += size(b)
				}
			}
			for _, b := range c {
				used += size(b)
			}
			pos += len(c)
		}
	}
	return out, nil
}
