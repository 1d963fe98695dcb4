// Command claragen drives the NF program synthesizer: it emits random,
// corpus-representative NFC programs (the paper's customized-YarpGen data
// synthesis, §3.2), optionally verifying that they compile.
//
// Usage:
//
//	claragen -n 3 -seed 7           # guided by the element-library profile
//	claragen -uniform               # the unguided Table 1 baseline
//	claragen -crc | -lpm            # labeled accelerator-algorithm variants
//	claragen -record t.bin -pkts 5000 -workload mix   # record a trace file
package main

import (
	"flag"
	"fmt"
	"os"

	"clara/internal/click"
	"clara/internal/lang"
	"clara/internal/synth"
	"clara/internal/traffic"
)

func main() {
	var (
		n        = flag.Int("n", 1, "number of programs")
		seed     = flag.Int64("seed", 1, "starting seed")
		uniform  = flag.Bool("uniform", false, "unguided baseline profile")
		crc      = flag.Bool("crc", false, "emit CRC algorithm variants")
		lpm      = flag.Bool("lpm", false, "emit LPM algorithm variants")
		check    = flag.Bool("check", true, "verify programs compile")
		record   = flag.String("record", "", "record a workload trace to this file and exit")
		pkts     = flag.Int("pkts", 5000, "packets to record")
		workload = flag.String("workload", "mix", "workload for -record: small | large | mix")
	)
	flag.Parse()

	if *record != "" {
		spec, err := traffic.Standard(*workload)
		if err != nil {
			fmt.Fprintln(os.Stderr, "claragen:", err)
			os.Exit(2)
		}
		f, err := os.Create(*record)
		if err != nil {
			fmt.Fprintln(os.Stderr, "claragen:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := traffic.WriteTrace(f, traffic.MustTrace(spec, *pkts)); err != nil {
			fmt.Fprintln(os.Stderr, "claragen:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "recorded %d packets of %s to %s\n", *pkts, spec.Name, *record)
		return
	}

	emit := func(name, src string) {
		if *check {
			if _, err := lang.Compile(name, src); err != nil {
				fmt.Fprintf(os.Stderr, "claragen: generated program invalid: %v\n", err)
				os.Exit(1)
			}
		}
		fmt.Printf("// ---- %s ----\n%s\n", name, src)
	}

	for i := 0; i < *n; i++ {
		s := *seed + int64(i)
		switch {
		case *crc:
			p := synth.CRCVariant(s)
			emit(p.Name, p.Src)
		case *lpm:
			p := synth.LPMVariant(s)
			emit(p.Name, p.Src)
		default:
			prof := synth.UniformProfile()
			if !*uniform {
				mods, err := click.Modules(click.Table2Order)
				if err != nil {
					fmt.Fprintln(os.Stderr, "claragen:", err)
					os.Exit(1)
				}
				prof = synth.ProfileFromModules(mods)
			}
			src := synth.Generate(synth.Config{Profile: prof, Seed: s})
			emit(fmt.Sprintf("synth_%d", s), src)
		}
	}
}
