package core

import (
	"context"
	"errors"
	"strings"
	"testing"

	"clara/internal/click"
	"clara/internal/interp"
	"clara/internal/lang"
	"clara/internal/traffic"
)

// TestProfileOnHostPacketCount: zero packets is an empty profile with
// Setup run, not a trace error; a negative count is an error naming it.
func TestProfileOnHostPacketCount(t *testing.T) {
	e := click.Get("udpcount")
	ran := false
	ps := ProfileSetup{Setup: func(m *interp.Machine) error {
		ran = true
		return e.Setup(m)
	}}
	hp, err := ProfileOnHostContext(context.Background(), e.MustModule(), ps, traffic.MediumMix, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !ran || hp.Packets != 0 || len(hp.GlobalFreq) != 0 || len(hp.BlockAccess) != 0 || hp.AccessesPerPacket != 0 {
		t.Errorf("n=0: setup ran %v, profile %+v; want setup run and an empty profile", ran, hp)
	}
	if _, err := ProfileOnHost(e.MustModule(), ps, traffic.MediumMix, -3); err == nil || !strings.Contains(err.Error(), "-3") {
		t.Errorf("n=-3: err = %v, want one naming -3", err)
	}
	if _, err := ProfileOnHost(e.MustModule(), ps, traffic.Spec{Name: "bogus"}, 0); err == nil {
		t.Error("n=0 accepted an invalid workload spec")
	}
}

// TestGlobalFreeRunawayFails: profiling is where a module's runtime faults
// surface, so a handler without globals that never terminates fails its
// analysis with the interpreter's fuel error rather than getting Insights.
func TestGlobalFreeRunawayFails(t *testing.T) {
	mod, err := lang.Compile("spin", `
void handle() {
	u32 i = 0;
	while (true) { i += 1; }
}`)
	if err != nil {
		t.Fatal(err)
	}
	c := &Clara{Predictor: getPredictor(t)}
	ins, err := c.AnalyzeContext(context.Background(), mod, ProfileSetup{}, traffic.SmallFlows)
	if !errors.Is(err, interp.ErrFuel) {
		t.Errorf("got insights %v, err %v; want %v", ins, err, interp.ErrFuel)
	}
}
