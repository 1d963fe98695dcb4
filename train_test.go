package clara

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"clara/internal/core"
)

// quickModelHash is the content hash of the sealed quick tool (seed 42),
// the benchmark's model_hash. Anything that moves a trained weight, a
// vocabulary word or a scale-out training sample moves it.
const quickModelHash = "8d869221b43b8df9779ad3de3bdcb1d2e473709999ece8eb45f8d01cf1b73a32"

func sealedHash(t *testing.T, tool *Tool) string {
	t.Helper()
	b, err := core.NewBundle(tool, core.BundleMeta{Quick: true, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.EncodeBundle(b); err != nil { // seals b.Hash
		t.Fatal(err)
	}
	return b.Hash
}

// TestQuickModelHash pins the whole quick tool, the scale-out training set
// included, and requires the same tool from a single-threaded train:
// training fans out on GOMAXPROCS goroutines but must not depend on it.
func TestQuickModelHash(t *testing.T) {
	if got := sealedHash(t, quickTestTool(t)); got != quickModelHash {
		t.Fatalf("quick model hash = %s, want %s", got, quickModelHash)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	tool, err := Train(TrainConfig{Quick: true, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if got := sealedHash(t, tool); got != quickModelHash {
		t.Fatalf("GOMAXPROCS=1 quick model hash = %s, want %s", got, quickModelHash)
	}
}

// TestTrainContextCancelJoins cancels a full-scale train shortly after it
// starts: TrainContext must return context.Canceled promptly, and no
// goroutine it started (the knee measurement runs on its own) may outlive
// the call. The server's background trainer relies on this at shutdown.
func TestTrainContextCancelJoins(t *testing.T) {
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	timer := time.AfterFunc(100*time.Millisecond, cancel)
	defer timer.Stop()
	start := time.Now()
	tool, err := TrainContext(ctx, TrainConfig{Seed: 42})
	took := time.Since(start)
	if !errors.Is(err, context.Canceled) || tool != nil {
		t.Fatalf("TrainContext after cancel = %v, %v; want nil, context.Canceled", tool, err)
	}
	if took > 2*time.Second {
		t.Errorf("TrainContext returned %v after start, %v after cancel", took, took-100*time.Millisecond)
	}
	// A knee worker still running would have MeasureKnees on its stack.
	buf := make([]byte, 1<<20)
	if stacks := string(buf[:runtime.Stack(buf, true)]); strings.Contains(stacks, "internal/core.MeasureKnees") {
		t.Fatalf("knee measurement outlived TrainContext:\n%s", stacks)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after TrainContext returned, %d before", runtime.NumGoroutine(), base)
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Logf("returned %v after start", took)
}
