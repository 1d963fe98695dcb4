package nicsim

import (
	"fmt"
	"math"
	"slices"
)

// Result summarizes one simulated run of one NF.
type Result struct {
	Name           string
	Cores          int
	Packets        int
	ThroughputMpps float64
	AvgLatencyUs   float64
	MaxLatencyUs   float64
}

// Ratio returns the throughput/latency ratio (Mpps/µs), the paper's knee
// metric in Figure 11(c)(d).
func (r Result) Ratio() float64 {
	if r.AvgLatencyUs == 0 {
		return 0
	}
	return r.ThroughputMpps / r.AvgLatencyUs
}

// coreState is one hardware thread's position in the replay. Threads of
// the same core share the core's compute pipeline (the pipe index into a
// per-core busy clock): compute serializes per core, while memory and
// engine waits overlap across threads — run-to-completion contexts hiding
// latency, as on Netronome MEs.
type coreState struct {
	t     float64 // time of the thread's next action
	part  int
	pipe  int // index into the shared per-core pipeline clocks
	pkt   int // current packet (-1: idle, awaiting dispatch)
	ev    int32
	start float64
}

// coreRef is one heap entry: a thread's next-action time paired with its
// index into the flat thread array. Keeping the sort key inline keeps
// every sift comparison inside the contiguous heap slice — the previous
// []*coreState layout dereferenced a pointer per comparison, and those
// cache misses dominated simulation time.
//
// The key is the time's IEEE-754 bits (math.Float64bits). Clocks start at
// +0 and only advance by finite, non-negative amounts (Params.Validate
// refuses anything else), so every key is a finite float ≥ +0, whose bit
// patterns sort exactly as the floats do, equal times included. Every key
// and the +Inf sentinel are below 1<<63, so the top bit of a - b is set
// exactly when a < b: the smaller-child pick is a subtract and a shift.
type coreRef struct {
	t  uint64
	ci int32
}

// infKey is math.Float64bits(math.Inf(1)), the sentinels' key.
const infKey = 0x7ff0000000000000

// coreHeap is a binary min-heap over core next-action times: its last two
// entries are +Inf sentinels, so the root always has two children and a
// node with a left child always has a right one. The sift operations are
// hand-rolled (same algorithm and tie behaviour as container/heap: the
// right child wins only when strictly earlier, so schedules are
// unchanged) because the simulator re-sorts the root after every event —
// an interface-dispatched Less/Swap pair per comparison dominated
// simulation time. A d-ary heap or a (time, thread) order would break
// ties differently and change results.
type coreHeap []coreRef

// newCoreHeap returns the heap of threads 0..n-1, all at time +0, in
// h's storage, which must have room for n+2 entries.
func newCoreHeap(h coreHeap, n int) coreHeap {
	h = h[:n+2]
	for i := range h {
		h[i] = coreRef{ci: int32(i)}
	}
	h[n].t, h[n+1].t = infKey, infKey
	return h // equal keys: already a heap in container/heap.Init's order
}

// Len returns the number of live threads.
func (h coreHeap) Len() int { return len(h) - 2 }

// earlierChild returns the earlier of the root's children (the left one
// on a tie); it is a sentinel when the root has no live child.
func (h coreHeap) earlierChild() int { return 1 + int((h[2].t-h[1].t)>>63) }

// down sinks x into the hole at i, mirroring container/heap's down.
func (h coreHeap) down(i int, x coreRef) {
	n := len(h) - 2
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		j += int((h[j+1].t - h[j].t) >> 63)
		if h[j].t >= x.t {
			break
		}
		h[i] = h[j]
		i = j
	}
	h[i] = x
}

// sink moves the root's time to t, already known to be later than its
// child j (the root's earlier child): j rises into the root and the root
// sinks from j's place.
func (h coreHeap) sink(j int, t uint64) {
	x := coreRef{t: t, ci: h[0].ci}
	h[0] = h[j]
	h.down(j, x)
}

// setRoot moves the root's time to t and restores the heap. The common
// case — the root is still no later than both children — is two
// compares.
func (h coreHeap) setRoot(t uint64) {
	if j := h.earlierChild(); h[j].t < t {
		h.sink(j, t)
		return
	}
	h[0].t = t
}

// popRoot removes the root (a drained part's core retiring).
func (h *coreHeap) popRoot() {
	old := *h
	n := len(old) - 3
	x := old[n]
	old[n].t = infKey
	*h = old[:n+2]
	if n > 0 {
		h.down(0, x)
	}
}

// Part is one colocated NF's share of the NIC.
type Part struct {
	TS    *TraceSet
	Cores int
}

// warmupFrac is the fraction of each trace excluded from measurements
// (state and cache warmup).
const warmupFrac = 0.1

// Simulate replays one trace set on the given number of cores.
func Simulate(params Params, cores int, ts *TraceSet) (Result, error) {
	rs, err := SimulateColocation(params, []Part{{TS: ts, Cores: cores}})
	if err != nil {
		return Result{}, err
	}
	return rs[0], nil
}

// simArrays is the storage one replay's threads, pipelines and heap live
// in; SweepCores reuses it across its core counts.
type simArrays struct {
	threads []coreState
	pipes   []float64 // per-core compute-pipeline busy clocks
	heap    coreHeap
}

// partState tracks one NF's dispatch progress and measurements.
type partState struct {
	ts       *TraceSet
	cpp      float64 // cycles between consecutive arrivals
	next     int
	warm     int
	count    int
	sumLat   float64
	maxLat   float64
	firstEnd float64
	lastEnd  float64
}

// SimulateColocation replays multiple trace sets sharing the NIC's memory
// system, engines and ingress path, each on a private core pool — the
// paper's colocation setup (§4.5: "each NF is given the same amount of
// SmartNIC resources" by default).
//
// The replay is a discrete-event simulation: cores advance one trace event
// per scheduling step in global time order, so concurrently executing
// packets interleave their accesses at the shared memory servers. A memory
// or engine access occupies its server for the access's Occupy cycles
// (reciprocal bandwidth) while the requesting core blocks for the full
// access latency — run-to-completion cores over pipelined memory units.
func SimulateColocation(params Params, parts []Part) ([]Result, error) {
	return new(simArrays).simulate(params, parts)
}

func (a *simArrays) simulate(params Params, parts []Part) ([]Result, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if len(parts) == 0 {
		return nil, fmt.Errorf("nicsim: no parts to simulate")
	}
	totalCores := 0
	for _, p := range parts {
		if p.Cores <= 0 {
			return nil, fmt.Errorf("nicsim: part %q has no cores", p.TS.Name)
		}
		if p.TS.Packets() == 0 {
			return nil, fmt.Errorf("nicsim: part %q has an empty trace", p.TS.Name)
		}
		totalCores += p.Cores
	}
	if totalCores > params.NumCores {
		return nil, fmt.Errorf("nicsim: %d cores requested, NIC has %d", totalCores, params.NumCores)
	}

	ghz := params.CoreGHz
	states := make([]*partState, len(parts))
	// Sized for the whole NIC, so a sweep allocates them once.
	most := params.NumCores * params.ThreadsPerCore
	threads := slices.Grow(a.threads[:0], most)
	pipes := slices.Grow(a.pipes[:0], params.NumCores)
	for i, p := range parts {
		// Each colocated NF is fed through its own port at up to
		// IngressMpps (the modeled NIC, like the Agilio CX, has one MAC
		// per colocated service); interference between colocated NFs comes
		// from the shared memory subsystem and engines, "primarily from
		// contention at the memory subsystems" (§4.5).
		share := params.IngressMpps
		if p.TS.OfferedMpps > 0 && p.TS.OfferedMpps < share {
			share = p.TS.OfferedMpps
		}
		states[i] = &partState{
			ts:   p.TS,
			cpp:  ghz * 1e9 / (share * 1e6),
			warm: int(float64(p.TS.Packets()) * warmupFrac),
		}
		for c := 0; c < p.Cores; c++ {
			pipe := len(pipes)
			pipes = append(pipes, 0)
			for th := 0; th < params.ThreadsPerCore; th++ {
				threads = append(threads, coreState{part: i, pkt: -1, pipe: pipe})
			}
		}
	}
	cores := newCoreHeap(slices.Grow(a.heap[:0], most+2), len(threads))
	a.threads, a.pipes, a.heap = threads, pipes, cores

	var servers [numServers]float64
	wire := float64(params.WireOverheadCycles)

	// Invariant: at the top of each iteration every heap entry's cached t
	// equals its thread's t — only the root's t drifts while its events
	// are applied, and it is written back right before the root is re-sorted.
	for cores.Len() > 0 {
		c := &threads[cores[0].ci]
		st := states[c.part]

		if c.pkt < 0 {
			// Dispatch the part's next packet onto this idle core.
			if st.next >= st.ts.Packets() {
				cores.popRoot() // part drained; retire the core
				continue
			}
			arr := float64(st.next) * st.cpp
			if arr > c.t {
				c.t = arr // core idles until the packet arrives
			}
			c.pkt = st.next
			c.ev = st.ts.Off[c.pkt]
			c.start = c.t
			st.next++
			cores.setRoot(math.Float64bits(c.t))
			continue
		}

		if c.ev >= st.ts.Off[c.pkt+1] {
			// Packet complete.
			end := c.t + wire
			if c.pkt >= st.warm {
				lat := end - c.start
				st.sumLat += lat
				if lat > st.maxLat {
					st.maxLat = lat
				}
				if st.count == 0 {
					st.firstEnd = c.start
				}
				st.count++
				if end > st.lastEnd {
					st.lastEnd = end
				}
			}
			c.pkt = -1 // the root's time is unchanged: it stays the root
			continue
		}

		// Drain this core's events while it remains the earliest thread.
		// Only the root's time moves meanwhile, so the earliest other
		// thread is one of its children, picked once up front. The
		// stay-or-yield test is setRoot's, so the batched loop replays the
		// same global event order as re-extracting the root after every
		// event — it only skips the redundant heap reads in between.
		// (math.Max is spelled as a compare: these clocks are never NaN,
		// and the intrinsic's NaN/±0 handling kept it from inlining.)
		evEnd := st.ts.Off[c.pkt+1]
		j := cores.earlierChild()
		next := cores[j].t
		for {
			ev := &st.ts.Events[c.ev]
			c.ev++
			if ev.Server == srvNone {
				if ev.Kind == EvCompute {
					// Compute serializes on the core's pipeline across its
					// threads.
					p := &pipes[c.pipe]
					start := c.t
					if *p > start {
						start = *p
					}
					*p = start + float64(ev.Cycles)
					c.t = start + float64(ev.Cycles)
				} else {
					// Pure latency (ingress-path handling): no core resource.
					c.t += float64(ev.Cycles)
				}
			} else {
				s := &servers[ev.Server]
				issue := c.t
				if *s > issue {
					issue = *s
				}
				*s = issue + float64(ev.Occupy)
				c.t = issue + float64(ev.Cycles)
			}
			// Stop at the packet's end (completion is handled once the
			// thread is the root again) or once another thread is earlier.
			if c.ev >= evEnd || next < math.Float64bits(c.t) {
				break
			}
		}
		if key := math.Float64bits(c.t); next < key {
			cores.sink(j, key)
		} else {
			cores[0].t = key
		}
	}

	out := make([]Result, len(parts))
	for i, st := range states {
		r := Result{Name: st.ts.Name, Cores: parts[i].Cores, Packets: st.count}
		if st.count > 0 {
			r.AvgLatencyUs = st.sumLat / float64(st.count) / (ghz * 1e3)
			r.MaxLatencyUs = st.maxLat / (ghz * 1e3)
			span := st.lastEnd - st.firstEnd
			if span > 0 {
				r.ThroughputMpps = float64(st.count) / (span / (ghz * 1e9)) / 1e6
			}
		}
		out[i] = r
	}
	return out, nil
}

// SweepCores simulates ts at each core count.
func SweepCores(params Params, ts *TraceSet, coreCounts []int) ([]Result, error) {
	out := make([]Result, 0, len(coreCounts))
	var a simArrays
	for _, c := range coreCounts {
		rs, err := a.simulate(params, []Part{{TS: ts, Cores: c}})
		if err != nil {
			return nil, err
		}
		out = append(out, rs[0])
	}
	return out, nil
}

// DefaultCoreSweep is the core-count grid used by the scale-out analyses.
var DefaultCoreSweep = []int{1, 2, 4, 6, 8, 12, 16, 20, 24, 28, 32, 36, 40, 44, 48, 52, 56, 60}

// KneeCores picks the core count at the knee of the throughput/latency
// tradeoff (§4.2, Figure 11): the smallest core count whose ratio is
// within 2%% of the sweep's maximum — beyond the knee, more cores buy
// contention, not useful ratio.
func KneeCores(results []Result) int {
	bestRatio := -1.0
	for _, r := range results {
		if ratio := r.Ratio(); ratio > bestRatio {
			bestRatio = ratio
		}
	}
	for _, r := range results {
		if r.Ratio() >= 0.98*bestRatio {
			return r.Cores
		}
	}
	return 0
}

// CoresToSaturate returns the smallest core count reaching frac of the
// sweep's peak throughput (the Figure 13 metric: "number of cores required
// to saturate the bandwidth").
func CoresToSaturate(results []Result, frac float64) int {
	peak := 0.0
	for _, r := range results {
		if r.ThroughputMpps > peak {
			peak = r.ThroughputMpps
		}
	}
	for _, r := range results {
		if r.ThroughputMpps >= frac*peak {
			return r.Cores
		}
	}
	if len(results) == 0 {
		return 0
	}
	return results[len(results)-1].Cores
}
