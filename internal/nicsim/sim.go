package nicsim

import (
	"fmt"
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
type coreRef struct {
	t  float64
	ci int32
}

// coreHeap is a min-heap over core next-action times. The sift operations
// are hand-rolled (same algorithm and tie behaviour as container/heap, so
// schedules are unchanged) because the simulator re-sorts the root after
// every event — an interface-dispatched Less/Swap pair per comparison
// dominated simulation time.
type coreHeap []coreRef

func (h coreHeap) Len() int { return len(h) }

// siftDown restores the heap property from the root, mirroring
// container/heap's down(0): the smaller child wins ties exactly the same
// way, so event order is identical to the container/heap implementation.
func (h coreHeap) siftDown() {
	n := len(h)
	i := 0
	root := h[0]
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && h[j2].t < h[j].t {
			j = j2
		}
		if h[j].t >= root.t {
			break
		}
		h[i] = h[j]
		i = j
	}
	h[i] = root
}

// fixRoot re-sorts the root after its time advanced. The common case —
// the root is still no later than both children — is a two-compare
// no-op, skipping the full sift.
func (h coreHeap) fixRoot() {
	if len(h) > 1 {
		j := 1
		if len(h) > 2 && h[2].t < h[1].t {
			j = 2
		}
		if h[j].t < h[0].t {
			h.siftDown()
		}
	}
}

// popRoot removes the root (a drained part's core retiring).
func (h *coreHeap) popRoot() {
	old := *h
	n := len(old) - 1
	old[0] = old[n]
	*h = old[:n]
	if n > 0 {
		(*h).siftDown()
	}
}

// initHeap establishes the heap property (container/heap.Init order).
func (h coreHeap) initHeap() {
	n := len(h)
	for i := n/2 - 1; i >= 0; i-- {
		// Sift h[i] down within h[:n], same comparisons as siftDown but
		// rooted at i.
		root := h[i]
		k := i
		for {
			j := 2*k + 1
			if j >= n {
				break
			}
			if j2 := j + 1; j2 < n && h[j2].t < h[j].t {
				j = j2
			}
			if h[j].t >= root.t {
				break
			}
			h[k] = h[j]
			k = j
		}
		h[k] = root
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
	var threads []coreState
	var pipes []float64 // per-core compute-pipeline busy clocks
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
	cores := make(coreHeap, len(threads))
	for i := range cores {
		cores[i] = coreRef{ci: int32(i)}
	}
	cores.initHeap()

	var servers [numServers]float64
	wire := float64(params.WireOverheadCycles)

	// Invariant: at the top of each iteration every heap entry's cached t
	// equals its thread's t — only the root's t drifts while its events
	// are applied, and it is written back right before the root is re-sorted.
sched:
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
			cores[0].t = c.t
			cores.fixRoot()
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
			c.pkt = -1
			cores.fixRoot()
			continue
		}

		// Drain this core's events while it remains the earliest thread.
		// The stay-or-yield test below uses exactly the comparisons
		// fixRoot performs, so the batched loop replays the same global
		// event order as re-extracting the root after every event — it
		// only skips the redundant heap reads in between. (math.Max is
		// spelled as a compare: these clocks are never NaN, and the
		// intrinsic's NaN/±0 handling kept it from inlining.)
		evEnd := st.ts.Off[c.pkt+1]
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
			if c.ev >= evEnd {
				break // packet complete: handled on re-extraction
			}
			if len(cores) > 1 {
				j := 1
				if len(cores) > 2 && cores[2].t < cores[1].t {
					j = 2
				}
				if cores[j].t < c.t {
					// Another thread is now earlier: yield. This test is
					// fixRoot's, so sift without repeating it.
					cores[0].t = c.t
					cores.siftDown()
					continue sched
				}
			}
		}
		cores[0].t = c.t
		cores.fixRoot()
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
	for _, c := range coreCounts {
		r, err := Simulate(params, c, ts)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
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
