package niccc

import (
	"testing"

	"clara/internal/ir"
	"clara/internal/isa"
	"clara/internal/synth"
)

// TestCompilerInvariantsOnSynthCorpus checks structural invariants of the
// vendor compiler over a random program corpus:
//
//  1. output has one compiled block per IR block;
//  2. NIC stateful-memory counts never exceed IR counts (the compiler only
//     removes accesses, never invents them);
//  3. every IR stateful store is preserved (stores are never elided);
//  4. compilation is deterministic.
func TestCompilerInvariantsOnSynthCorpus(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		mod, src, err := synth.GenerateModule(synth.Config{
			Profile: synth.UniformProfile(), Seed: seed, StateBias: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		prog, err := Compile(mod, Options{})
		if err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, src)
		}
		f := mod.Handler()
		if len(prog.Blocks) != len(f.Blocks) {
			t.Fatalf("seed %d: %d blocks for %d IR blocks", seed, len(prog.Blocks), len(f.Blocks))
		}
		for bi, b := range f.Blocks {
			irLoads, irStores := 0, 0
			for _, in := range b.Instrs {
				switch in.Op {
				case ir.OpGLoad:
					irLoads++
				case ir.OpGStore:
					irStores++
				}
			}
			nicReads, nicWrites := 0, 0
			for _, in := range prog.Blocks[bi].Instrs {
				switch in.Op {
				case isa.OpMemRead:
					nicReads++
				case isa.OpMemWrite:
					nicWrites++
				}
			}
			if nicReads > irLoads {
				t.Fatalf("seed %d b%d: NIC reads %d > IR loads %d", seed, bi, nicReads, irLoads)
			}
			if nicWrites != irStores {
				t.Fatalf("seed %d b%d: NIC writes %d != IR stores %d", seed, bi, nicWrites, irStores)
			}
		}
		again, err := Compile(mod, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if again.TotalCompute() != prog.TotalCompute() || again.TotalMem() != prog.TotalMem() {
			t.Fatalf("seed %d: nondeterministic compilation", seed)
		}
	}
}

// TestMemInstrsCarryGlobals verifies every emitted memory instruction
// names a resolvable global (the simulator requires it for placement).
func TestMemInstrsCarryGlobals(t *testing.T) {
	for seed := int64(100); seed < 120; seed++ {
		mod, _, err := synth.GenerateModule(synth.Config{
			Profile: synth.UniformProfile(), Seed: seed, StateBias: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		prog, err := Compile(mod, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for bi, b := range prog.Blocks {
			for _, in := range b.Instrs {
				if in.Op.IsMem() {
					if in.Global == "" {
						t.Fatalf("seed %d b%d: memory instruction without a global", seed, bi)
					}
					if mod.Global(in.Global) == nil && in.Global != PktMeta {
						t.Fatalf("seed %d b%d: unknown global %q", seed, bi, in.Global)
					}
					if in.Size <= 0 {
						t.Fatalf("seed %d b%d: memory access with size %d", seed, bi, in.Size)
					}
				}
			}
		}
	}
}

// TestAccelConfigNeverChangesMemoryCounts ensures acceleration decisions
// (checksum/CRC/LPM engines) do not alter the program's stateful access
// profile — they replace compute, not state.
func TestAccelConfigNeverChangesMemoryCounts(t *testing.T) {
	for seed := int64(200); seed < 215; seed++ {
		mod, _, err := synth.GenerateModule(synth.Config{
			Profile: synth.UniformProfile(), Seed: seed, StateBias: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		plain, err := Compile(mod, Options{})
		if err != nil {
			t.Fatal(err)
		}
		accel, err := Compile(mod, Options{Accel: AccelConfig{
			CsumEngine: true, CRCEngine: true, LPMEngine: true,
		}})
		if err != nil {
			t.Fatal(err)
		}
		if plain.TotalMem() != accel.TotalMem() {
			t.Fatalf("seed %d: accel changed memory counts %d -> %d",
				seed, plain.TotalMem(), accel.TotalMem())
		}
	}
}
