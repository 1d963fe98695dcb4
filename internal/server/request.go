package server

import (
	"errors"
	"fmt"
	"time"

	"clara/internal/click"
	"clara/internal/core"
	"clara/internal/fleet"
	"clara/internal/lang"
	"clara/internal/traffic"
)

// This file is the one place a request — (nf | nfs | src, name, workload)
// from an HTTP body, the coordinator, or the CLI's flags — becomes fleet
// jobs or a lintable source. Selector counting, the default name, element
// lookup, compilation and the error texts exist here and nowhere else, so
// every door rejects the same input with the same words.

// orSubmitted labels source sent without a name.
func orSubmitted(name string) string {
	if name == "" {
		return "submitted"
	}
	return name
}

// AnalyzeRequest is the /v1/analyze body. Exactly one of NF, NFs, or
// Src selects what to analyze.
type AnalyzeRequest struct {
	// NF names one library element; NFs names several (one batch).
	NF  string   `json:"nf,omitempty"`
	NFs []string `json:"nfs,omitempty"`
	// Src is NFC source to compile and analyze; Name labels it.
	Src  string `json:"src,omitempty"`
	Name string `json:"name,omitempty"`
	// Workload is small | large | mix (default mix).
	Workload string `json:"workload,omitempty"`
	// TimeoutMs optionally shortens the server's request timeout.
	TimeoutMs int `json:"timeout_ms,omitempty"`
}

// LintRequest is the /v1/lint body: a library element name or source.
type LintRequest struct {
	NF   string `json:"nf,omitempty"`
	Src  string `json:"src,omitempty"`
	Name string `json:"name,omitempty"`
}

func element(name string) (*click.Element, error) {
	e := click.Get(name)
	if e == nil {
		return nil, fmt.Errorf("unknown element %q (clara -list and GET /v1/elements list them)", name)
	}
	return e, nil
}

// ElementJob builds the job that analyzes a library element under wl,
// seeding its state the way the element declares. The element's name is
// the setup's identity: it is what lets the fleet's result store tell this
// job from another element's, and answer it again from memory.
func ElementJob(name string, wl traffic.Spec) (fleet.Job, error) {
	e, err := element(name)
	if err != nil {
		return fleet.Job{}, err
	}
	mod, err := e.Module()
	if err != nil {
		return fleet.Job{}, err
	}
	return fleet.Job{
		Name: e.Name,
		Mod:  mod,
		PS:   core.ProfileSetup{Setup: e.Setup, LPMTable: e.Routes, ID: e.Name},
		WL:   wl,
	}, nil
}

// Jobs resolves the request into fleet jobs, in request order.
func (r *AnalyzeRequest) Jobs() ([]fleet.Job, error) {
	wl, err := traffic.Standard(r.Workload)
	if err != nil {
		return nil, err
	}
	if r.TimeoutMs < 0 {
		return nil, fmt.Errorf("timeout_ms must not be negative (got %d)", r.TimeoutMs)
	}
	selectors := 0
	for _, set := range []bool{r.NF != "", len(r.NFs) > 0, r.Src != ""} {
		if set {
			selectors++
		}
	}
	if selectors != 1 {
		return nil, errors.New("exactly one of nf, nfs, or src must be set")
	}
	if r.Src != "" {
		name := orSubmitted(r.Name)
		start := time.Now()
		mod, err := lang.Compile(name, r.Src)
		if err != nil {
			return nil, fmt.Errorf("compiling %s: %v", name, err)
		}
		return []fleet.Job{{Name: name, Mod: mod, WL: wl, Lower: time.Since(start)}}, nil
	}
	names := r.NFs
	if r.NF != "" {
		names = []string{r.NF}
	}
	jobs := make([]fleet.Job, len(names))
	for i, n := range names {
		if jobs[i], err = ElementJob(n, wl); err != nil {
			return nil, err
		}
	}
	return jobs, nil
}

// Source resolves the request into the (name, NFC source) pair to lint.
func (r *LintRequest) Source() (name, src string, err error) {
	switch {
	case r.NF != "" && r.Src == "":
		e, err := element(r.NF)
		if err != nil {
			return "", "", err
		}
		return e.Name, e.Src, nil
	case r.Src != "" && r.NF == "":
		return orSubmitted(r.Name), r.Src, nil
	}
	return "", "", errors.New("exactly one of nf or src must be set")
}
