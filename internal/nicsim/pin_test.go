package nicsim

import (
	"container/heap"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"clara/internal/click"
	"clara/internal/traffic"
)

// simulationBitsHash is the sha256 TestSimulationBitsPinned expects. It
// moves only when a simulated schedule does: a change to the event order,
// the heap's tie-breaking or any arithmetic on a clock.
const simulationBitsHash = "f9abba04f80c17da49d732aaa4a2d8c097b4b90d13a087aba98ade6b2f4edd3e"

// TestSimulationBitsPinned pins the replay bit for bit: one sha256 over
// every Result field (floats by their bits) of SweepCores(DefaultCoreSweep)
// for each library element under the small, large and mix workloads, and
// of a few colocated pairs.
func TestSimulationBitsPinned(t *testing.T) {
	params := DefaultParams()
	h := sha256.New()
	put := func(rs []Result) {
		for _, r := range rs {
			fmt.Fprintf(h, "%s\x00", r.Name)
			for _, v := range []uint64{uint64(r.Cores), uint64(r.Packets),
				math.Float64bits(r.ThroughputMpps), math.Float64bits(r.AvgLatencyUs), math.Float64bits(r.MaxLatencyUs)} {
				binary.Write(h, binary.LittleEndian, v)
			}
		}
	}
	var mix []*TraceSet
	for _, e := range click.Library() {
		for _, wl := range []traffic.Spec{traffic.SmallFlows, traffic.LargeFlows, traffic.MediumMix} {
			nf := &NF{Name: e.Name, Mod: e.MustModule(), Setup: e.Setup, LPMTable: e.Routes}
			b, err := nf.Build(params)
			if err != nil {
				t.Fatal(err)
			}
			ts, err := GenTraces(b, wl, 200, params)
			if err != nil {
				t.Fatalf("%s/%s: %v", e.Name, wl.Name, err)
			}
			rs, err := SweepCores(params, ts, DefaultCoreSweep)
			if err != nil {
				t.Fatalf("%s/%s: %v", e.Name, wl.Name, err)
			}
			put(rs)
			if wl.Name == traffic.MediumMix.Name {
				mix = append(mix, ts)
			}
		}
	}
	for i := 0; i+1 < len(mix); i += 5 {
		for _, cores := range []int{4, 30} {
			rs, err := SimulateColocation(params, []Part{{mix[i], cores}, {mix[i+1], cores}})
			if err != nil {
				t.Fatal(err)
			}
			put(rs)
		}
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != simulationBitsHash {
		t.Errorf("simulation results moved: sha256 %s, want %s", got, simulationBitsHash)
	}
}

// refHeap is container/heap's reference order over the same entries.
type refHeap []refEntry

type refEntry struct {
	t  float64
	ci int32
}

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return h[i].t < h[j].t }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)        { *h = append(*h, x.(refEntry)) }
func (h *refHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// TestCoreHeapMatchesContainerHeap drives coreHeap and container/heap
// through the same random replace-root and pop sequences over keys drawn
// from a handful of values, so most comparisons are ties, and requires the
// same thread at the root after every step: the simulator's schedule
// depends on which of two equal-time threads runs first.
func TestCoreHeapMatchesContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(70)
		span := 1 + rng.Intn(6)
		keys := make([]float64, n)
		ref := make(refHeap, n)
		for i := range keys {
			keys[i] = float64(rng.Intn(span))
			ref[i] = refEntry{keys[i], int32(i)}
		}
		h := testHeap(keys)
		heap.Init(&ref)
		for step := 0; ref.Len() > 0; step++ {
			if got, want := testRoot(h), ref[0].ci; got != want {
				t.Fatalf("trial %d step %d: root thread %d, container/heap %d", trial, step, got, want)
			}
			switch op := rng.Intn(8); {
			case op == 0:
				testPop(&h)
				heap.Pop(&ref)
			default:
				// Like the simulator's clocks, a root's time never moves back.
				k := ref[0].t + float64(rng.Intn(span))
				testSetRoot(h, k, op%2 == 0)
				ref[0].t = k
				heap.Fix(&ref, 0)
			}
			if testLen(h) != ref.Len() {
				t.Fatalf("trial %d step %d: len %d, container/heap %d", trial, step, testLen(h), ref.Len())
			}
		}
	}
}

// The accessors below are the test's only contact with coreHeap's layout.

func testHeap(keys []float64) coreHeap {
	h := newCoreHeap(make(coreHeap, 0, len(keys)+2), len(keys))
	for i, k := range keys {
		h[i].t = math.Float64bits(k)
	}
	for i := len(keys)/2 - 1; i >= 0; i-- { // container/heap.Init's order
		h.down(i, h[i])
	}
	return h
}

func testRoot(h coreHeap) int32 { return h[0].ci }

func testLen(h coreHeap) int { return h.Len() }

func testPop(h *coreHeap) { h.popRoot() }

// testSetRoot moves the root's time to k, through setRoot or, with
// drain, through the drain loop's yield path: sink from the earlier child
// once it is strictly earlier.
func testSetRoot(h coreHeap, k float64, drain bool) {
	key := math.Float64bits(k)
	if !drain {
		h.setRoot(key)
		return
	}
	if j := h.earlierChild(); h[j].t < key {
		h.sink(j, key)
		return
	}
	h[0].t = key
}
