package offload

import (
	"fmt"
	"math"
	"math/rand"
)

// SizeDistKind selects a flow-size distribution family.
type SizeDistKind int

const (
	// SizeZipf draws flow sizes from a truncated Zipf — the classic
	// internet flow-size mix (many mice, a fat elephant tail).
	SizeZipf SizeDistKind = iota
	// SizeBimodal draws an elephant size with probability ElephantFrac
	// and a mouse size otherwise.
	SizeBimodal
)

// SizeDist is a flow-size (total packets per flow) distribution. It is a
// plain value, not an interface, so configs marshal and compare cleanly.
type SizeDist struct {
	Kind SizeDistKind
	// Zipf parameters: sizes in [Min,Max] with skew S (must be > 1 for
	// rand.Zipf; larger = more mice).
	S   float64
	Min int
	Max int
	// Bimodal parameters.
	ElephantSize int
	MouseMax     int     // mouse sizes are uniform in [1,MouseMax]
	ElephantFrac float64 // fraction of flows that are elephants
}

// Validate rejects unusable distributions.
func (d SizeDist) Validate() error {
	switch d.Kind {
	case SizeZipf:
		// The skew must be a finite value > 1: rand.Zipf's rejection
		// sampler can spin forever on NaN/Inf parameters.
		if !(d.S > 1) || math.IsInf(d.S, 1) {
			return fmt.Errorf("offload: Zipf skew must be finite and > 1 (got %g)", d.S)
		}
		if d.Min <= 0 || d.Max < d.Min {
			return fmt.Errorf("offload: Zipf size range [%d,%d] invalid", d.Min, d.Max)
		}
	case SizeBimodal:
		if d.ElephantSize <= 0 || d.MouseMax <= 0 {
			return fmt.Errorf("offload: bimodal sizes must be positive (%d/%d)", d.ElephantSize, d.MouseMax)
		}
		// Written to also reject NaN.
		if !(d.ElephantFrac >= 0 && d.ElephantFrac <= 1) {
			return fmt.Errorf("offload: ElephantFrac %g outside [0,1]", d.ElephantFrac)
		}
	default:
		return fmt.Errorf("offload: unknown size distribution %d", int(d.Kind))
	}
	return nil
}

// maxSize is the largest flow size the distribution can produce (the
// natural upper clamp for thresholds).
func (d SizeDist) maxSize() int {
	if d.Kind == SizeBimodal {
		if d.ElephantSize > d.MouseMax {
			return d.ElephantSize
		}
		return d.MouseMax
	}
	return d.Max
}

// sampler prepares the per-round sampling state for one PRNG. rand.Zipf
// carries internal state, so each round builds a fresh one from that
// round's PRNG — construction is cheap and keeps rounds independent.
type sampler struct {
	d    SizeDist
	rng  *rand.Rand
	zipf *rand.Zipf
}

func (d SizeDist) sampler(rng *rand.Rand) sampler {
	s := sampler{d: d, rng: rng}
	if d.Kind == SizeZipf && d.Max > d.Min {
		s.zipf = rand.NewZipf(rng, d.S, 1, uint64(d.Max-d.Min))
	}
	return s
}

func (s sampler) sample() int {
	switch s.d.Kind {
	case SizeBimodal:
		if s.rng.Float64() < s.d.ElephantFrac {
			return s.d.ElephantSize
		}
		return 1 + s.rng.Intn(s.d.MouseMax)
	default:
		if s.zipf == nil {
			return s.d.Min
		}
		return s.d.Min + int(s.zipf.Uint64())
	}
}

// Samples draws n flow sizes with a dedicated PRNG — the deterministic
// empirical view of the distribution the insight seeding uses.
func (d SizeDist) Samples(n int, seed int64) []int {
	s := d.sampler(rand.New(rand.NewSource(seed)))
	out := make([]int, n)
	for i := range out {
		out[i] = s.sample()
	}
	return out
}

// OffloadedShare estimates, from empirical flow sizes, the fraction of
// packet traffic a threshold T moves to the fast path: a flow of size s
// pays its first T packets on the slow path and carries s-T on the fast
// path once its rule lands. Monotone non-increasing in T.
func OffloadedShare(samples []int, threshold int) float64 {
	var total, fast int64
	for _, s := range samples {
		total += int64(s)
		if s > threshold {
			fast += int64(s - threshold)
		}
	}
	if total == 0 {
		return 0
	}
	return float64(fast) / float64(total)
}

// Scenario describes the flow stream offered to the NIC.
type Scenario struct {
	Name string
	// CPS is new flows per round (connections per second).
	CPS int
	// PPS caps offered packets per round; flows beyond it hold their
	// packets (the generator traverses flows until the cap, SNIPPETS §1
	// step 2).
	PPS int
	// Sizes is the total-packets-per-flow distribution.
	Sizes SizeDist
	// FlowRounds spreads a flow's packets over about this many rounds
	// (per-round rate = ceil(size/FlowRounds)); mice still finish in one
	// round. Defaults to 16.
	FlowRounds int
	// AttackCPS adds this many single-packet SYN flows per round from
	// round AttackStart on — the SYN-flood scenario. They complete
	// immediately, so they are never offload candidates; they exist to
	// burn slow-path capacity.
	AttackCPS   int
	AttackStart int
}

// Validate rejects unusable scenarios.
func (sc Scenario) Validate() error {
	if sc.CPS <= 0 {
		return fmt.Errorf("offload: CPS must be positive (got %d)", sc.CPS)
	}
	if sc.PPS <= 0 {
		return fmt.Errorf("offload: PPS must be positive (got %d)", sc.PPS)
	}
	if sc.FlowRounds < 0 {
		return fmt.Errorf("offload: FlowRounds must be >= 0 (got %d)", sc.FlowRounds)
	}
	if sc.AttackCPS < 0 || sc.AttackStart < 0 {
		return fmt.Errorf("offload: attack knobs must be >= 0 (got %d@%d)", sc.AttackCPS, sc.AttackStart)
	}
	return sc.Sizes.Validate()
}

func (sc Scenario) flowRounds() int {
	if sc.FlowRounds == 0 {
		return 16
	}
	return sc.FlowRounds
}

// The three standard scenarios, at flow-size granularity: Zipf
// popularity (the flavor of traffic.MediumMix), a SYN flood of tiny
// single-packet flows, and a bimodal elephant/mice split whose handful of
// heavy hitters carry nearly all bytes. The offered load is sized
// against the capacities DeriveCapacities produces for a mid-weight NF:
// steady state offers ~2.5-3x the slow-path budget, so the controller
// must offload the heavy tail to stop dropping.

// ZipfScenario is the steady-state mix: Zipf flow sizes, constant churn.
// ~2000 new flows and ~150k offered packets per round at steady state.
func ZipfScenario() Scenario {
	return Scenario{
		Name: "zipf",
		CPS:  2000,
		PPS:  1 << 18,
		Sizes: SizeDist{
			Kind: SizeZipf, S: 1.2, Min: 1, Max: 1024,
		},
	}
}

// SYNFloodScenario is the Zipf mix plus a flood of one-packet SYN flows
// from round 12 on: the attack is unoffloadable (single-packet flows
// never become candidates), so the controller must offload more of the
// legitimate tail to protect the slow path.
func SYNFloodScenario() Scenario {
	sc := ZipfScenario()
	sc.Name = "synflood"
	sc.AttackCPS = 8000
	sc.AttackStart = 12
	return sc
}

// ElephantMiceScenario is the bimodal mix: a small elephant fraction
// carries almost all packets, so almost any sane threshold separates the
// classes — the scenario where hand-set baselines are hardest to beat.
func ElephantMiceScenario() Scenario {
	return Scenario{
		Name: "elephantmice",
		CPS:  2000,
		PPS:  1 << 18,
		Sizes: SizeDist{
			Kind: SizeBimodal, ElephantSize: 16384, MouseMax: 8, ElephantFrac: 0.004,
		},
	}
}

// Scenarios returns the three standard scenarios in CLI/benchmark order.
func Scenarios() []Scenario {
	return []Scenario{ZipfScenario(), SYNFloodScenario(), ElephantMiceScenario()}
}

// ScenarioByName parses a CLI scenario name.
func ScenarioByName(name string) (Scenario, error) {
	for _, sc := range Scenarios() {
		if sc.Name == name {
			return sc, nil
		}
	}
	return Scenario{}, fmt.Errorf("offload: unknown scenario %q (zipf|synflood|elephantmice)", name)
}
