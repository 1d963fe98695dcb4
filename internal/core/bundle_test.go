package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"clara/internal/click"
	"clara/internal/niccc"
	"clara/internal/nicsim"
	"clara/internal/synth"
)

// tinyTool builds a small-but-complete trained tool (predictor + algo-ID
// + scale-out) shared across bundle tests.
var sharedTinyTool *Clara

func getTinyTool(t *testing.T) *Clara {
	t.Helper()
	if sharedTinyTool != nil {
		return sharedTinyTool
	}
	pred := getPredictor(t)
	algo, err := TrainAlgoIdentifier(synth.AlgoCorpus(8, 7), 32, 7)
	if err != nil {
		t.Fatal(err)
	}
	sm, err := TrainScaleout(ScaleoutConfig{
		TrainPrograms: 6, PacketsPerTrace: 300,
		CoreGrid: []int{2, 8, 24, 48}, Seed: 7,
	}, pred)
	if err != nil {
		t.Fatal(err)
	}
	sharedTinyTool = &Clara{Predictor: pred, AlgoID: algo, Scaleout: sm,
		Params: nicsim.DefaultParams()}
	return sharedTinyTool
}

func saveTinyBundle(t *testing.T) (string, *Bundle, *Clara) {
	t.Helper()
	tool := getTinyTool(t)
	b, err := NewBundle(tool, BundleMeta{Quick: true, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.json")
	if err := SaveBundle(path, b); err != nil {
		t.Fatal(err)
	}
	return path, b, tool
}

func TestBundleRoundTripBitIdenticalPredict(t *testing.T) {
	path, saved, tool := saveTinyBundle(t)
	loaded, err := LoadBundle(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Hash != saved.Hash || loaded.Hash == "" {
		t.Fatalf("hash mismatch after round trip: %q vs %q", loaded.Hash, saved.Hash)
	}
	got, err := loaded.Tool()
	if err != nil {
		t.Fatal(err)
	}
	// Every analysis output must be bit-identical, module by module.
	for _, name := range []string{"tcpack", "udpipencap", "aggcounter", "mazunat", "iprewriter"} {
		m := click.Get(name).MustModule()
		want, err := tool.Predictor.PredictModule(m, niccc.AccelConfig{})
		if err != nil {
			t.Fatal(err)
		}
		have, err := got.Predictor.PredictModule(m, niccc.AccelConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(want.TotalCompute) != math.Float64bits(have.TotalCompute) ||
			want.TotalMem != have.TotalMem || want.TotalAPI != have.TotalAPI {
			t.Fatalf("%s: prediction differs after reload: %+v vs %+v", name, want, have)
		}
		for i := range want.Blocks {
			if math.Float64bits(want.Blocks[i].Compute) != math.Float64bits(have.Blocks[i].Compute) {
				t.Fatalf("%s block %d: compute differs after reload", name, i)
			}
		}
		if a, b := tool.AlgoID.Classify(m), got.AlgoID.Classify(m); a != b {
			t.Fatalf("%s: algorithm label differs after reload: %d vs %d", name, a, b)
		}
	}
	// Scale-out model: identical suggestions over the retained train set.
	for i, s := range tool.Scaleout.Train {
		if a, b := tool.Scaleout.Suggest(s.Features), got.Scaleout.Suggest(s.Features); a != b {
			t.Fatalf("train sample %d: scale-out suggestion differs: %d vs %d", i, a, b)
		}
	}
}

// TestPredictorConfigWireFormat pins the predictor config's bytes inside a
// bundle: they are hashed into model_hash, so adding, renaming or removing
// a field that serializes invalidates every saved bundle, and must come
// with a BundleVersion bump.
func TestPredictorConfigWireFormat(t *testing.T) {
	got, err := json.Marshal(PredictorConfig{}.norm())
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"TrainPrograms":220,"Hidden":28,"Epochs":24,"CompactVocab":false,"PredictAPI":false,"Seed":0}`
	if string(got) != want {
		t.Errorf("predictor config wire format changed (breaks saved bundles):\n got %s\nwant %s", got, want)
	}
}

func TestBundleSaveLoadSaveStable(t *testing.T) {
	path, saved, _ := saveTinyBundle(t)
	loaded, err := LoadBundle(path)
	if err != nil {
		t.Fatal(err)
	}
	path2 := filepath.Join(t.TempDir(), "model2.json")
	if err := SaveBundle(path2, loaded); err != nil {
		t.Fatal(err)
	}
	again, err := LoadBundle(path2)
	if err != nil {
		t.Fatal(err)
	}
	if again.Hash != saved.Hash {
		t.Fatalf("content hash drifted across save/load/save: %q vs %q", again.Hash, saved.Hash)
	}
}

func TestBundleCorruptionRejected(t *testing.T) {
	path, _, _ := saveTinyBundle(t)
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Flip one digit inside a params array — hash must catch it.
	s := string(blob)
	i := strings.Index(s, `"params": [`)
	if i < 0 {
		t.Fatal("no params array found in bundle JSON")
	}
	j := strings.IndexAny(s[i+12:], "0123456789") + i + 12
	mutated := s[:j] + flipDigit(s[j]) + s[j+1:]
	if _, err := DecodeBundle([]byte(mutated)); !errors.Is(err, ErrBundleCorrupt) {
		t.Fatalf("tampered bundle: got %v, want ErrBundleCorrupt", err)
	}

	// Truncation must also be rejected cleanly.
	if _, err := DecodeBundle(blob[:len(blob)/2]); !errors.Is(err, ErrBundleCorrupt) {
		t.Fatalf("truncated bundle: got %v, want ErrBundleCorrupt", err)
	}
}

func flipDigit(b byte) string {
	if b == '9' {
		return "8"
	}
	return "9"
}

func TestBundleVersionMismatchRejected(t *testing.T) {
	_, b, _ := saveTinyBundle(t)
	b.Version = BundleVersion + 1
	blob, err := EncodeBundle(b)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeBundle(blob); !errors.Is(err, ErrBundleVersion) {
		t.Fatalf("future-version bundle: got %v, want ErrBundleVersion", err)
	}
	b.Version = BundleVersion

	// Documents earlier encodings wrote are refused by their version, not
	// as a content-hash mismatch over fields this build no longer has:
	// version 1 with a minor and int8 predictor weights, and version 2 with
	// a list of predictor models and the since-deleted options.
	blob, err = EncodeBundle(b)
	if err != nil {
		t.Fatal(err)
	}
	for _, old := range []struct {
		version int
		edit    func(doc, pred map[string]any)
	}{
		{1, func(doc, pred map[string]any) {
			doc["minor"] = 1
			pred["quant"] = []any{map[string]any{"qwh": "AAEC", "whf": []float64{0.5}}}
		}},
		{2, func(doc, pred map[string]any) {
			pred["models"] = []any{pred["model"]}
			delete(pred, "model")
			cfg := pred["config"].(map[string]any)
			cfg["Ensemble"], cfg["Batch"], cfg["Workers"], cfg["Profile"] = 1, 8, 0, nil
			doc["coalesce"].(map[string]any)["MaxK"] = 6
		}},
	} {
		var doc map[string]any
		if err := json.Unmarshal(blob, &doc); err != nil {
			t.Fatal(err)
		}
		doc["version"] = old.version
		old.edit(doc, doc["predictor"].(map[string]any))
		prev, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		_, err = DecodeBundle(prev)
		want := fmt.Sprintf("bundle v%d, this build reads v%d", old.version, BundleVersion)
		if !errors.Is(err, ErrBundleVersion) || !strings.Contains(err.Error(), want) {
			t.Fatalf("v%d bundle: got %v, want ErrBundleVersion with %q", old.version, err, want)
		}
	}
}

func TestBundleStaleLibraryRejected(t *testing.T) {
	_, b, _ := saveTinyBundle(t)
	orig := b.LibHash
	b.LibHash = strings.Repeat("0", 64)
	blob, err := EncodeBundle(b)
	if err != nil {
		t.Fatal(err)
	}
	b.LibHash = orig
	if _, err := DecodeBundle(blob); !errors.Is(err, ErrBundleStale) {
		t.Fatalf("stale-library bundle: got %v, want ErrBundleStale", err)
	}
}
