package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"clara/internal/ir"
	"clara/internal/ml"
	"clara/internal/niccc"
	"clara/internal/nicsim"
)

// This file implements the persistent model bundle: a versioned,
// content-hashed encoding of every trained component a Clara tool carries
// (LSTM predictor + vocabulary, algorithm-ID SVM + mined grams,
// scale-out GBDT + training set, hardware params). A server restart loads
// the bundle in well under a second instead of re-synthesizing a corpus
// and retraining — the warm-start path of `clara -serve -model-load`.
//
// Invalidation is structural, not temporal:
//   - Version guards the encoding itself;
//   - LibHash fingerprints the vendor library the predictor's residual
//     targets embed (reverse porting), so a toolchain change voids bundles;
//   - Hash is a sha256 over the canonical (unindented, Hash-cleared) JSON,
//     so corruption or hand-editing is detected on load;
//   - Meta records the training configuration so a caller can refuse a
//     bundle trained under different settings.
//
// JSON is exact for this data: Go marshals float64 as the shortest string
// that parses back to the identical bits, so a load→save→load cycle is
// bit-stable and a reloaded model predicts bit-identically.

// BundleVersion is the encoding version this build reads and writes.
// Version 1 bundles carried a minor version and int8 predictor weights;
// version 2 bundles carried a list of predictor models and the predictor,
// LSTM and coalescing options since made constants. Both are refused as
// ErrBundleVersion, and callers train instead.
const BundleVersion = 3

// Bundle rejection causes, matchable with errors.Is.
var (
	ErrBundleVersion = errors.New("model bundle version mismatch")
	ErrBundleCorrupt = errors.New("model bundle content hash mismatch")
	ErrBundleStale   = errors.New("model bundle library fingerprint mismatch")
	// ErrBundleConfig marks a structurally valid bundle trained under a
	// different configuration than the caller wants (checked by loaders
	// that pin training settings, not by DecodeBundle itself).
	ErrBundleConfig = errors.New("model bundle training config mismatch")
)

// BundleMeta records how the bundled tool was trained.
type BundleMeta struct {
	Quick        bool    `json:"quick"`
	Seed         int64   `json:"seed"`
	TrainSeconds float64 `json:"train_seconds,omitempty"`
	CreatedUnix  int64   `json:"created_unix,omitempty"`
}

type predictorState struct {
	Config    PredictorConfig `json:"config"`
	Vocab     []string        `json:"vocab"`
	Model     ml.LSTMState    `json:"model"`
	TrainLoss float64         `json:"train_loss"`
}

type algoIDState struct {
	Grams     []string    `json:"grams"`
	GramClass []int       `json:"gram_class"`
	SVM       ml.SVMState `json:"svm"`
}

type scaleoutState struct {
	Config ScaleoutConfig   `json:"config"`
	GBDT   ml.GBDTState     `json:"gbdt"`
	Train  []ScaleoutSample `json:"train"`
}

// Bundle is the on-disk form of a trained Clara tool.
type Bundle struct {
	Version   int             `json:"version"`
	LibHash   string          `json:"lib_hash"`
	Hash      string          `json:"hash"`
	Meta      BundleMeta      `json:"meta"`
	Predictor *predictorState `json:"predictor,omitempty"`
	AlgoID    *algoIDState    `json:"algo_id,omitempty"`
	Scaleout  *scaleoutState  `json:"scaleout,omitempty"`
	Params    nicsim.Params   `json:"params"`
	Coalesce  CoalesceConfig  `json:"coalesce"`
}

// NewBundle captures a trained tool into bundle form.
func NewBundle(tool *Clara, meta BundleMeta) (*Bundle, error) {
	if tool == nil || tool.Predictor == nil {
		return nil, fmt.Errorf("core: cannot bundle a tool without a predictor")
	}
	b := &Bundle{
		Version:  BundleVersion,
		LibHash:  niccc.LibraryFingerprint(),
		Meta:     meta,
		Params:   tool.Params,
		Coalesce: tool.Coalesce,
	}
	b.Predictor = &predictorState{
		Config:    tool.Predictor.cfg,
		Vocab:     tool.Predictor.Vocab.Words(),
		Model:     tool.Predictor.model.Export(),
		TrainLoss: tool.Predictor.TrainLoss,
	}
	if tool.AlgoID != nil {
		b.AlgoID = &algoIDState{
			Grams:     append([]string(nil), tool.AlgoID.Grams...),
			GramClass: append([]int(nil), tool.AlgoID.GramClass...),
			SVM:       tool.AlgoID.svm.Export(),
		}
	}
	if tool.Scaleout != nil {
		b.Scaleout = &scaleoutState{
			Config: tool.Scaleout.cfg,
			GBDT:   tool.Scaleout.gbdt.Export(),
			Train:  append([]ScaleoutSample(nil), tool.Scaleout.Train...),
		}
	}
	return b, nil
}

// Tool reconstructs the trained tool. The result predicts bit-identically
// to the tool the bundle was captured from.
func (b *Bundle) Tool() (*Clara, error) {
	if b.Predictor == nil {
		return nil, fmt.Errorf("core: bundle has no predictor")
	}
	vocab, err := ir.VocabFromWords(b.Predictor.Vocab)
	if err != nil {
		return nil, fmt.Errorf("core: bundle vocabulary: %w", err)
	}
	model, err := ml.NewLSTMFromState(b.Predictor.Model)
	if err != nil {
		return nil, fmt.Errorf("core: bundle predictor model: %w", err)
	}
	p := &Predictor{cfg: b.Predictor.Config, Vocab: vocab, model: model, TrainLoss: b.Predictor.TrainLoss}
	tool := &Clara{Predictor: p, Params: b.Params, Coalesce: b.Coalesce}
	if b.AlgoID != nil {
		if len(b.AlgoID.Grams) != len(b.AlgoID.GramClass) {
			return nil, fmt.Errorf("core: bundle algo-id has %d grams but %d classes",
				len(b.AlgoID.Grams), len(b.AlgoID.GramClass))
		}
		svm, err := ml.NewSVMFromState(b.AlgoID.SVM)
		if err != nil {
			return nil, fmt.Errorf("core: bundle algo-id: %w", err)
		}
		tool.AlgoID = &AlgoIdentifier{
			Grams:     append([]string(nil), b.AlgoID.Grams...),
			GramClass: append([]int(nil), b.AlgoID.GramClass...),
			svm:       svm,
		}
	}
	if b.Scaleout != nil {
		gbdt, err := ml.NewGBDTFromState(b.Scaleout.GBDT)
		if err != nil {
			return nil, fmt.Errorf("core: bundle scale-out: %w", err)
		}
		tool.Scaleout = &ScaleoutModel{
			cfg:   b.Scaleout.Config.norm(),
			gbdt:  gbdt,
			Train: append([]ScaleoutSample(nil), b.Scaleout.Train...),
		}
	}
	return tool, nil
}

// contentHash computes the canonical digest: sha256 over the compact JSON
// encoding with the Hash field cleared. Go's json package emits struct
// fields in declaration order and map keys sorted, so the encoding — and
// the digest — is deterministic.
func (b *Bundle) contentHash() (string, error) {
	c := *b
	c.Hash = ""
	blob, err := json.Marshal(&c)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:]), nil
}

// EncodeBundle seals the bundle (fills Hash) and renders it as indented
// JSON for the model file.
func EncodeBundle(b *Bundle) ([]byte, error) {
	h, err := b.contentHash()
	if err != nil {
		return nil, err
	}
	b.Hash = h
	return json.MarshalIndent(b, "", " ")
}

// DecodeBundle parses and validates a bundle: encoding version, content
// hash, and vendor-library fingerprint must all match this build. Failures
// wrap ErrBundleVersion / ErrBundleCorrupt / ErrBundleStale so callers can
// fall back to training.
func DecodeBundle(data []byte) (*Bundle, error) {
	var b Bundle
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("core: %w: %v", ErrBundleCorrupt, err)
	}
	if b.Version != BundleVersion {
		return nil, fmt.Errorf("core: %w: bundle v%d, this build reads v%d",
			ErrBundleVersion, b.Version, BundleVersion)
	}
	want, err := b.contentHash()
	if err != nil {
		return nil, err
	}
	if b.Hash != want {
		return nil, fmt.Errorf("core: %w: stored %.12s…, computed %.12s…",
			ErrBundleCorrupt, b.Hash, want)
	}
	if lib := niccc.LibraryFingerprint(); b.LibHash != lib {
		return nil, fmt.Errorf("core: %w: bundle %.12s…, library %.12s…",
			ErrBundleStale, b.LibHash, lib)
	}
	return &b, nil
}

// SaveBundle writes the bundle atomically (temp file + rename), so a
// crash mid-write never leaves a truncated model file behind.
func SaveBundle(path string, b *Bundle) error {
	blob, err := EncodeBundle(b)
	if err != nil {
		return err
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".clara-bundle-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(blob); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// LoadBundle reads and validates a bundle file.
func LoadBundle(path string) (*Bundle, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return DecodeBundle(data)
}
