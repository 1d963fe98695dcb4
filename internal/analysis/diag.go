package analysis

import (
	"fmt"
	"sort"
	"strings"
)

// Severity classifies a diagnostic: errors block a direct offload, warnings
// likely degrade it, infos describe required porting work (e.g. reverse
// porting an API call to the host).
type Severity int

// Severities, most severe first.
const (
	SevError Severity = iota
	SevWarning
	SevInfo
)

func (s Severity) String() string {
	switch s {
	case SevError:
		return "error"
	case SevWarning:
		return "warning"
	case SevInfo:
		return "info"
	default:
		return fmt.Sprintf("severity(%d)", int(s))
	}
}

// MarshalText encodes the severity as its name for JSON/text output.
func (s Severity) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// UnmarshalText decodes a severity name.
func (s *Severity) UnmarshalText(b []byte) error {
	switch string(b) {
	case "error":
		*s = SevError
	case "warning":
		*s = SevWarning
	case "info":
		*s = SevInfo
	default:
		return fmt.Errorf("unknown severity %q", b)
	}
	return nil
}

// Diagnostic is one linter finding, anchored to NFC source when the IR
// carries positions.
type Diagnostic struct {
	// Rule is the stable rule identifier (e.g. "loop-unbounded").
	Rule string `json:"rule"`
	// Severity is the finding's class.
	Severity Severity `json:"severity"`
	// Elem names the NF element (module) the finding is in.
	Elem string `json:"elem,omitempty"`
	// Fn names the containing IR function, if any.
	Fn string `json:"fn,omitempty"`
	// Line and Col are the 1-based source position (0 when unknown).
	Line int `json:"line,omitempty"`
	Col  int `json:"col,omitempty"`
	// Msg states the finding.
	Msg string `json:"msg"`
	// Hint suggests a fix or porting strategy, when one is known.
	Hint string `json:"hint,omitempty"`
	// Cause explains *why* the finding holds, when a deeper analysis knows
	// (e.g. a loop bound classified payload-dependent by taint tracking,
	// naming the source API).
	Cause string `json:"cause,omitempty"`
}

// String renders the diagnostic in the conventional
// elem:line:col: severity: message [rule] form.
func (d Diagnostic) String() string {
	var b strings.Builder
	b.WriteString(d.Elem)
	if d.Line > 0 {
		fmt.Fprintf(&b, ":%d:%d", d.Line, d.Col)
	}
	fmt.Fprintf(&b, ": %s: %s [%s]", d.Severity, d.Msg, d.Rule)
	return b.String()
}

// SortDiagnostics orders findings by source position, then rule — the
// stable source-order reading a reviewer expects, independent of which
// pass produced each finding.
func SortDiagnostics(ds []Diagnostic) {
	sort.SliceStable(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		if a.Severity != b.Severity {
			return a.Severity < b.Severity
		}
		if a.Fn != b.Fn {
			return a.Fn < b.Fn
		}
		return a.Msg < b.Msg
	})
}

// NormalizeDiagnostics sorts findings into position-then-rule order and
// removes duplicates: the same rule at the same position with the same
// message, whichever passes emitted it, appears once. The richer copy
// wins — a duplicate carrying a Cause or Hint fills in a bare one.
func NormalizeDiagnostics(ds []Diagnostic) []Diagnostic {
	SortDiagnostics(ds)
	out := ds[:0]
	for _, d := range ds {
		if n := len(out); n > 0 {
			p := &out[n-1]
			if p.Rule == d.Rule && p.Fn == d.Fn && p.Line == d.Line &&
				p.Col == d.Col && p.Msg == d.Msg {
				if p.Cause == "" {
					p.Cause = d.Cause
				}
				if p.Hint == "" {
					p.Hint = d.Hint
				}
				continue
			}
		}
		out = append(out, d)
	}
	return out
}

// Summary counts diagnostics by severity.
type Summary struct {
	Errors   int `json:"errors"`
	Warnings int `json:"warnings"`
	Infos    int `json:"infos"`
}

// Summarize tallies a diagnostic list.
func Summarize(ds []Diagnostic) Summary {
	var s Summary
	for _, d := range ds {
		switch d.Severity {
		case SevError:
			s.Errors++
		case SevWarning:
			s.Warnings++
		default:
			s.Infos++
		}
	}
	return s
}

// Render formats diagnostics for humans, one per line, hints indented
// beneath their finding.
func Render(ds []Diagnostic) string {
	var b strings.Builder
	for _, d := range ds {
		b.WriteString(d.String())
		b.WriteByte('\n')
		if d.Cause != "" {
			fmt.Fprintf(&b, "\tcause: %s\n", d.Cause)
		}
		if d.Hint != "" {
			fmt.Fprintf(&b, "\thint: %s\n", d.Hint)
		}
	}
	return b.String()
}
