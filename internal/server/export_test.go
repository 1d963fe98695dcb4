package server

import (
	"sync"
	"sync/atomic"
	"testing"

	"clara/internal/core"
)

// encodeLog is what recordEncodes saw: every insights encoding made while
// it was installed, in order.
type encodeLog struct {
	mu   sync.Mutex
	outs [][]byte
}

func (l *encodeLog) count() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.outs)
}

func (l *encodeLog) last() []byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.outs[len(l.outs)-1]
}

// recordEncodes wraps the insights encoder for the rest of the test, so a
// test can hold the reply path to "a result hit encodes nothing". Tests
// using it must not run in parallel: the encoder is the package's.
func recordEncodes(t *testing.T) *encodeLog {
	l := &encodeLog{}
	real := encodeInsights
	encodeInsights = func(ins *core.Insights) ([]byte, error) {
		b, err := real(ins)
		l.mu.Lock()
		l.outs = append(l.outs, b)
		l.mu.Unlock()
		return b, err
	}
	t.Cleanup(func() { encodeInsights = real })
	return l
}

// LightElements are the 18 library elements of the benchmark's
// cluster-light-batch request (bench/workloads.go).
var LightElements = []string{
	"aggcounter", "anonipaddr", "cmsketch_crc", "dnsproxy", "firewall", "forcetcp",
	"ipclassifier", "iprewriter", "mazunat", "tcpack", "tcpgen", "tcpresp",
	"timefilter", "tokenbucket", "udpcount", "udpipencap", "webgen", "webtcp",
}

// CountResultScans counts, for the rest of the test, every scan
// SplitResults makes of a result. Exported for hop_test.go, which sits
// outside the package to drive it through internal/cluster. Tests using it
// must not run in parallel: the validator is the package's.
func CountResultScans(t *testing.T) *atomic.Int64 {
	var n atomic.Int64
	real := validResult
	validResult = func(r []byte) bool {
		n.Add(1)
		return real(r)
	}
	t.Cleanup(func() { validResult = real })
	return &n
}

// CountInsightsScans empties the set of known insights values and counts,
// for the rest of the test, every insights value validResult scans because
// it was not in the set. Tests using it must not run in parallel: the set
// and the scanner are the package's.
func CountInsightsScans(t *testing.T) *atomic.Int64 {
	forgetKnownValues()
	var n atomic.Int64
	real := scanInsights
	scanInsights = func(v []byte) bool {
		n.Add(1)
		return real(v)
	}
	t.Cleanup(func() { scanInsights = real })
	return &n
}

// forgetKnownValues empties the set of known insights values and forgets
// every value seen once.
func forgetKnownValues() {
	known.Lock()
	known.values, known.size = nil, 0
	known.Unlock()
	for i := range seenOnce {
		seenOnce[i].Store(0)
	}
}
