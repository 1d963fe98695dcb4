package server

import (
	"sync"
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
