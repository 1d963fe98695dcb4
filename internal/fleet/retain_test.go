package fleet

import (
	"fmt"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"clara/internal/click"
	"clara/internal/core"
	"clara/internal/lang"
	"clara/internal/synth"
	"clara/internal/traffic"
)

// retainedBytesBudget bounds the live heap one never-seen program leaves
// behind in a fleet that has run it twice: its module-store and
// result-store entries and its compiled program in the process-wide
// program store. Run alone, while the program store has room, the test
// measures 38.6 KB per program (38.9 KB under -race, go1.24, amd64), of
// which ~5.1 KB are the fleet's two entries: a repeat run (-count 2),
// whose programs are already compiled, measures that. Run after tests
// that filled the program store, each program evicts another and it
// measures less. The budget is the alone figure rounded up to 40 KiB,
// about 1 KiB of room for another Go release's map and slice layouts;
// later changes may lower it but not raise it.
const retainedBytesBudget = 40 << 10

// TestStoresKeepNoSource: never-seen programs, each run twice through one
// fleet so that its module store hits and its result store admits the
// job, leave none of their sources reachable once the jobs are dropped,
// and each leaves at most retainedBytesBudget of live heap behind.
func TestStoresKeepNoSource(t *testing.T) {
	const n = 20
	mods, err := click.Modules(click.Table2Order)
	if err != nil {
		t.Fatal(err)
	}
	prof := core.CorpusProfile(mods)
	fl := newFleet(t, 2)
	// One program of the same stream first, so that what the first job
	// builds once per process (the workload's trace, lazily built tables)
	// predates the baseline.
	runTwiceFrom(t, fl, prof, 2999999, make(chan struct{}, 1))
	before := liveHeap()
	freed := make(chan struct{}, n)
	for p := 0; p < n; p++ {
		runTwiceFrom(t, fl, prof, 3000000+int64(p), freed)
	}
	if s := fl.Stats(); s.Results.Resident != n+1 || s.Predictions.Resident != n+1 {
		t.Fatalf("stores hold %d results and %d modules, want %d each", s.Results.Resident, s.Predictions.Resident, n+1)
	}
	got := 0
	for i := 0; i < 100 && got < n; i++ {
		runtime.GC()
		for drained := false; !drained; {
			select {
			case <-freed:
				got++
			case <-time.After(10 * time.Millisecond):
				drained = true
			}
		}
	}
	if got != n {
		t.Errorf("%d of %d sources collected: a store keeps a string cut from the source", got, n)
	}
	per := (int64(liveHeap()) - int64(before)) / n
	t.Logf("live heap left per program: %d B (budget %d B)", per, retainedBytesBudget)
	if per > retainedBytesBudget {
		t.Errorf("each program leaves %d B of live heap behind, over the %d B budget", per, retainedBytesBudget)
	}
	runtime.KeepAlive(fl)
}

// runTwiceFrom compiles the unique-src program of seed from a copy of its
// source in memory of its own, which sends on freed when it is collected,
// and runs it twice through fl. Nothing it builds outlives the call but
// what fl and the process-wide stores keep.
func runTwiceFrom(t *testing.T, fl *Fleet, prof synth.Profile, seed int64, freed chan<- struct{}) {
	t.Helper()
	src := synth.Generate(synth.Config{Profile: prof, Seed: seed})
	buf := make([]byte, len(src))
	copy(buf, src)
	runtime.SetFinalizer(&buf[0], func(*byte) { freed <- struct{}{} })
	name := fmt.Sprintf("keep%d", seed)
	mod, err := lang.Compile(name, unsafe.String(&buf[0], len(buf)))
	if err != nil {
		t.Fatal(err)
	}
	j := Job{Name: name, Mod: mod, WL: traffic.MediumMix}
	if first := run1(t, fl, j); first.CacheHit {
		t.Fatalf("%s: the module store already held this program", name)
	}
	if second := run1(t, fl, j); !second.CacheHit {
		t.Fatalf("%s: the second run missed the module store", name)
	}
}

// liveHeap returns the bytes of live heap once garbage is collected.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
