package offload

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
)

// flowState is one active flow. Flows live in a slice and are visited
// through a per-round permutation — no map iteration anywhere, so the
// simulation is bit-deterministic.
type flowState struct {
	remaining int // packets left to send
	rate      int // packets offered per round
	seen      int // slow-path packets the NIC has processed for this flow
	offloaded bool
	// offloadRound is the round the rule was installed; it takes effect
	// the following round (rule installation is slow — the premise of
	// the threshold).
	offloadRound int
}

// Record is one round of trajectory output. Integer counters are exact;
// the two rates are derived and rounded to 6 decimals so trajectories
// print identically everywhere.
type Record struct {
	Round        int     `json:"round"`
	Threshold    int     `json:"threshold"`
	Flows        int     `json:"flows"`      // active flows after the round
	TableUsed    int     `json:"table_used"` // offloaded flows still alive
	Generated    int     `json:"generated"`
	FastPath     int     `json:"fastpath"`
	SlowPath     int     `json:"slowpath"`
	Dropped      int     `json:"dropped"`
	Offloads     int     `json:"offloads"`
	OverOffloads int     `json:"over_offloads"`
	OffloadRate  float64 `json:"offload_rate"`
	DropRate     float64 `json:"drop_rate"`
}

// Trajectory is a full simulation run: the identifying header plus one
// Record per round.
type Trajectory struct {
	Scenario string   `json:"scenario"`
	Policy   string   `json:"policy"`
	Seed     int64    `json:"seed"`
	Rounds   []Record `json:"rounds"`
}

// NDJSON renders the trajectory as newline-delimited JSON: a header line
// followed by one line per round. `clara -simulate` emits exactly this,
// and the golden files pin it byte-for-byte.
func (t *Trajectory) NDJSON() string {
	var b strings.Builder
	head, _ := json.Marshal(struct {
		Scenario string `json:"scenario"`
		Policy   string `json:"policy"`
		Seed     int64  `json:"seed"`
		Rounds   int    `json:"rounds"`
	}{t.Scenario, t.Policy, t.Seed, len(t.Rounds)})
	b.Write(head)
	b.WriteByte('\n')
	for i := range t.Rounds {
		line, _ := json.Marshal(&t.Rounds[i])
		b.Write(line)
		b.WriteByte('\n')
	}
	return b.String()
}

// DefaultConvergenceTarget is the steady-state drop-rate bar behind the
// CLI's converged@N summary and the convergence-ordering tests.
const DefaultConvergenceTarget = 0.01

// ConvergenceRound returns the first round (1-based) from which the drop
// rate stays at or below target for every remaining round — the
// rounds-to-steady-state metric. Returns -1 if the trajectory never
// settles (including an empty trajectory).
func (t *Trajectory) ConvergenceRound(target float64) int {
	if len(t.Rounds) == 0 {
		return -1
	}
	last := -1 // last round index violating the target
	for i := range t.Rounds {
		if t.Rounds[i].DropRate > target {
			last = i
		}
	}
	switch {
	case last == len(t.Rounds)-1:
		return -1
	default:
		return last + 2 // first clean round, 1-based
	}
}

// FinalDropRate returns the last round's drop rate (0 for empty runs).
func (t *Trajectory) FinalDropRate() float64 {
	if len(t.Rounds) == 0 {
		return 0
	}
	return t.Rounds[len(t.Rounds)-1].DropRate
}

// FinalOffloadRate returns the last round's offload rate.
func (t *Trajectory) FinalOffloadRate() float64 {
	if len(t.Rounds) == 0 {
		return 0
	}
	return t.Rounds[len(t.Rounds)-1].OffloadRate
}

// Simulate runs the full control loop and returns the trajectory. The
// run is a pure function of cfg: see the package comment's determinism
// contract.
func Simulate(cfg Config) (*Trajectory, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.norm()
	sc, caps := cfg.Scenario, cfg.Capacity
	pol := newPolicy(cfg.Policy)
	flowRounds := sc.flowRounds()

	traj := &Trajectory{
		Scenario: sc.Name,
		Policy:   cfg.Policy.Kind.String(),
		Seed:     cfg.Seed,
		Rounds:   make([]Record, 0, cfg.Rounds),
	}
	var flows []flowState
	tableUsed := 0

	for round := 0; round < cfg.Rounds; round++ {
		rng := roundRNG(cfg.Seed, round)

		// 1. Admit this round's new flows (SNIPPETS §1 step 1). Attack
		// flows are single-packet SYNs: pure slow-path load.
		smp := sc.Sizes.sampler(rng)
		for i := 0; i < sc.CPS; i++ {
			size := smp.sample()
			flows = append(flows, flowState{
				remaining: size,
				rate:      (size + flowRounds - 1) / flowRounds,
			})
		}
		if sc.AttackCPS > 0 && round >= sc.AttackStart {
			for i := 0; i < sc.AttackCPS; i++ {
				flows = append(flows, flowState{remaining: 1, rate: 1})
			}
		}

		// 2+3. Traverse flows in a per-round random order until the
		// offered-load cap, classifying each flow's burst onto the fast
		// or slow path (steps 2 and 3).
		var rec Record
		rec.Round = round + 1
		perm := rng.Perm(len(flows))
		for _, fi := range perm {
			if rec.Generated >= sc.PPS {
				break
			}
			f := &flows[fi]
			q := f.rate
			if q > f.remaining {
				q = f.remaining
			}
			if q > sc.PPS-rec.Generated {
				q = sc.PPS - rec.Generated
			}
			if q == 0 {
				continue
			}
			rec.Generated += q
			if f.offloaded && f.offloadRound < round {
				// Fast path: the installed rule serves the burst up to
				// the fast-path budget.
				a := caps.FastPathPPS - rec.FastPath
				if a > q {
					a = q
				}
				rec.FastPath += a
				rec.Dropped += q - a
			} else {
				// Slow path: the full NF runs on the NIC cores; the
				// excess beyond the slow-path budget is dropped.
				a := caps.SlowPathPPS - rec.SlowPath
				if a > q {
					a = q
				}
				rec.SlowPath += a
				rec.Dropped += q - a
				f.seen += a
				// Offload decision: a flow that crossed the threshold
				// and still has packets to send is a candidate; it
				// needs a rule-insertion slot this round and a free
				// table entry, otherwise the miss is counted.
				if !f.offloaded && f.seen >= pol.threshold && f.remaining > q {
					if rec.Offloads < caps.OffloadPerRound && tableUsed < caps.OffloadTable {
						f.offloaded = true
						f.offloadRound = round
						tableUsed++
						rec.Offloads++
					} else {
						rec.OverOffloads++
					}
				}
			}
			f.remaining -= q
		}

		// Flow churn: completed flows leave and release their table
		// entries. In-place compaction keeps slice order stable.
		live := flows[:0]
		for i := range flows {
			if flows[i].remaining > 0 {
				live = append(live, flows[i])
			} else if flows[i].offloaded {
				tableUsed--
			}
		}
		flows = live

		// 4. End of round: let the policy adjust the threshold, then
		// record the round. The recorded threshold is the one this
		// round ran with.
		rec.Threshold = pol.threshold
		rec.Flows = len(flows)
		rec.TableUsed = tableUsed
		if rec.Generated > 0 {
			rec.OffloadRate = round6(float64(rec.FastPath) / float64(rec.Generated))
			rec.DropRate = round6(float64(rec.Dropped) / float64(rec.Generated))
		}
		pol.adjust(rec.Offloads, rec.OverOffloads, rec.Dropped)
		traj.Rounds = append(traj.Rounds, rec)
	}
	return traj, nil
}

func round6(x float64) float64 {
	return math.Round(x*1e6) / 1e6
}

// String summarizes a trajectory for logs.
func (t *Trajectory) String() string {
	conv := t.ConvergenceRound(DefaultConvergenceTarget)
	return fmt.Sprintf("offload %s/%s: %d rounds, converged@%d, final drop %.4f offload %.4f",
		t.Scenario, t.Policy, len(t.Rounds), conv, t.FinalDropRate(), t.FinalOffloadRate())
}
