// State slabs cross programs: the arrays, NIC vectors and NIC map tables a
// machine releases go to whichever machine is built next, of any module.
// These tests hold a machine built on recycled slabs to one built on
// memory no program has touched.
package interp_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"clara/internal/click"
	"clara/internal/core"
	"clara/internal/interp"
	"clara/internal/ir"
	"clara/internal/synth"
	"clara/internal/traffic"
)

// slabSubjects are the programs observed on recycled slabs: library
// elements whose tables share size classes with mazunat's (firewall) or
// with other elements' (iprewriter, dedup's NIC vector), and generated
// programs of the kind the serving path receives.
func slabSubjects(t *testing.T) []*click.Element {
	t.Helper()
	subjects := []*click.Element{click.Get("firewall"), click.Get("iprewriter"), click.Get("dedup")}
	mods, err := click.Modules(click.Table2Order)
	if err != nil {
		t.Fatal(err)
	}
	prof := core.CorpusProfile(mods)
	for p := 0; len(subjects) < 6; p++ {
		src := synth.Generate(synth.Config{Profile: prof, Seed: 1000003 + int64(p)})
		if strings.Contains(src, "map<") && strings.Contains(src, "global u32 ") {
			subjects = append(subjects, &click.Element{Name: fmt.Sprintf("u%d", p), Src: src})
		}
	}
	return subjects
}

// dirtySlabs runs each element, fills its arrays and maps to the brim and
// releases the machine, so the pools hold a used slab for every size class
// the elements ask for. With wrap set, each table is then taken once more
// and released at the last generation, which forces the wraparound clear.
func dirtySlabs(elems []*click.Element, pkts []traffic.Packet, mode interp.MapMode, wrap bool) error {
	for _, e := range elems {
		mod, err := e.Module()
		if err != nil {
			return err
		}
		cfg := interp.Config{Mode: mode, LPMTable: e.Routes}
		m, err := interp.New(mod, cfg)
		if err != nil {
			return err
		}
		if e.Setup != nil {
			if err := e.Setup(m); err != nil {
				return err
			}
		}
		for i := range pkts {
			p := pkts[i]
			p.Payload = append([]byte(nil), p.Payload...)
			if err := m.RunPacket(&p); err != nil {
				return err
			}
		}
		for _, g := range mod.Globals {
			switch g.Kind {
			case ir.GArray:
				ones := make([]uint64, g.Len)
				for i := range ones {
					ones[i] = ^uint64(0)
				}
				err = m.SetArray(g.Name, ones)
			case ir.GMap:
				for k := 0; k < g.Len && err == nil; k++ {
					err = m.MapSeed(g.Name, uint64(k)*2654435761, ^uint64(k))
				}
			}
			if err != nil {
				return err
			}
		}
		m.Release()
		if wrap {
			// The slots above are stamped with generation 1. A table that
			// wraps back to 1 without clearing would resurrect them.
			m, err := interp.New(mod, cfg)
			if err != nil {
				return err
			}
			m.SetMapGeneration(^uint32(0))
			m.Release()
		}
	}
	return nil
}

// TestSlabsAcrossPrograms is the differential test for the sharing slabs
// introduce: after the whole library (mazunat's 3 MB tables included) and
// the subjects themselves dirtied and released every size class, each
// subject's full transcript and counters must be byte-equal to the same
// run on a process-fresh machine, under both map modes, with and without
// a generation wraparound on the recycled tables.
func TestSlabsAcrossPrograms(t *testing.T) {
	subjects := slabSubjects(t)
	pkts := traffic.MustTrace(traffic.MediumMix, 96)
	for _, mode := range []interp.MapMode{interp.NICMap, interp.HostMap} {
		for _, wrap := range []bool{false, true} {
			if wrap && mode == interp.HostMap {
				continue // no NIC map tables to wrap
			}
			cfgOf := func(e *click.Element) interp.Config {
				return interp.Config{Mode: mode, LPMTable: e.Routes}
			}
			want := make([]string, len(subjects))
			for i, e := range subjects {
				interp.DropSlabs()
				want[i] = observe(t, e, pkts, cfgOf(e), false, (*interp.Machine).RunPacket)
			}
			interp.DropSlabs()
			if err := dirtySlabs(append(click.Library(), subjects...), pkts, mode, wrap); err != nil {
				t.Fatal(err)
			}
			for i, e := range subjects {
				got := observe(t, e, pkts, cfgOf(e), false, (*interp.Machine).RunPacket)
				if got != want[i] {
					t.Errorf("%s mode=%d wrap=%v: recycled slabs change the run:\n%s",
						e.Name, mode, wrap, diffLine(want[i], got))
				}
			}
		}
	}
}

// TestSlabsConcurrent has 8 goroutines dirty, release and re-take slabs at
// once while each checks its subjects against the process-fresh
// transcripts; under -race it also shows no slab is ever held by two
// machines.
func TestSlabsConcurrent(t *testing.T) {
	subjects := slabSubjects(t)
	pkts := traffic.MustTrace(traffic.MediumMix, 48)
	cfgOf := func(e *click.Element) interp.Config {
		return interp.Config{Mode: interp.NICMap, LPMTable: e.Routes}
	}
	want := make([]string, len(subjects))
	for i, e := range subjects {
		interp.DropSlabs()
		want[i] = observe(t, e, pkts, cfgOf(e), false, (*interp.Machine).RunPacket)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if err := dirtySlabs(subjects, pkts, interp.NICMap, w%2 == 1); err != nil {
				t.Error(err)
				return
			}
			for k := range subjects {
				i := (k + w) % len(subjects)
				got, err := transcript(subjects[i], pkts, cfgOf(subjects[i]), false, (*interp.Machine).RunPacket)
				if err != nil {
					t.Error(err)
				} else if got != want[i] {
					t.Errorf("worker %d, %s: recycled slabs change the run:\n%s",
						w, subjects[i].Name, diffLine(want[i], got))
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestUseAfterRelease: a released machine must fail loudly — it has given
// its state away, and the next machine may already be writing to it.
func TestUseAfterRelease(t *testing.T) {
	e := click.Get("mazunat")
	m, err := interp.New(e.MustModule(), interp.Config{Mode: interp.NICMap})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.MapSeed("nat_out", 1, 2); err != nil {
		t.Fatal(err)
	}
	m.Release()
	m.Release() // a second Release must not hand the slabs out twice
	uses := map[string]func(){
		"RunPacket": func() { p := traffic.MustTrace(traffic.SmallFlows, 1)[0]; _ = m.RunPacket(&p) },
		"MapGet":    func() { _, _, _ = m.MapGet("nat_out", 1) },
		"MapSeed":   func() { _ = m.MapSeed("nat_out", 3, 4) },
		"Scalar":    func() { _, _ = m.Scalar("nat_active") },
	}
	for name, use := range uses {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a released machine did not panic", name)
				}
			}()
			use()
		}()
	}
	// Two machines built after the double Release must not share a table.
	a, _ := interp.New(e.MustModule(), interp.Config{Mode: interp.NICMap})
	b, _ := interp.New(e.MustModule(), interp.Config{Mode: interp.NICMap})
	if err := a.MapSeed("nat_out", 9, 9); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := b.MapGet("nat_out", 9); ok {
		t.Error("two live machines share a NIC map table")
	}
}

// TestSlabWrapClearsWholeCapacity: a table's generation wraps while a
// program with a shorter map holds it. The clear must cover the slab's
// whole capacity — the slots beyond the short map still carry the stamps
// of the longer map that used the slab first, at the very generation the
// wrap restarts from.
func TestSlabWrapClearsWholeCapacity(t *testing.T) {
	build := func(n int) *interp.Machine {
		src := fmt.Sprintf("map<u64,u64> t[%d];\nvoid handle() { pkt_send(0); }\n", n)
		mod, err := (&click.Element{Name: fmt.Sprintf("m%d", n), Src: src}).Module()
		if err != nil {
			t.Fatal(err)
		}
		m, err := interp.New(mod, interp.Config{Mode: interp.NICMap})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	const long, short = 131072, 72000 // one size class, 2^17 slots
	interp.DropSlabs()
	m := build(long)
	for k := uint64(0); k < long; k++ {
		if err := m.MapSeed("t", k, k+1); err != nil {
			t.Fatal(err)
		}
	}
	m.Release()
	m = build(short)
	m.SetMapGeneration(^uint32(0))
	m.Release()
	m = build(long)
	defer m.Release()
	if n, _ := m.MapLen("t"); n != 0 {
		t.Errorf("recycled table reports %d entries", n)
	}
	for k := uint64(0); k < long; k++ {
		if v, ok, _ := m.MapGet("t", k); ok {
			t.Fatalf("key %d -> %d survived the generation wrap", k, v)
		}
	}
}
