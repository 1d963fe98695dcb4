package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// percentile is the nearest-rank p-th percentile of sorted samples.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	k := int(p/100*float64(len(sorted))+0.999999) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(sorted) {
		k = len(sorted) - 1
	}
	return sorted[k]
}

// tailPercentile is the highest percentile with at least ten samples
// beyond it: p99 from 1000 samples, p90 from 100, else the median.
func tailPercentile(n int) float64 {
	switch {
	case n >= 1000:
		return 99
	case n >= 100:
		return 90
	}
	return 50
}

func median(xs []float64) float64 {
	_, q2, _ := quartiles(xs)
	return q2
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

var spinSink uint64

// spinMS times a fixed CPU-bound loop. Read before and after a measured
// phase, it tells a run that had the cores from one that shared them.
func spinMS() float64 {
	t0 := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 40_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	spinSink = x
	return ms(time.Since(t0))
}

// phase is one measured closed-loop phase.
type phase struct {
	lat         []float64 // per-op latency at the client, ms, successful ops
	ops, failed int
	wall, cpu   time.Duration
}

// measure drives d with w.clients closed-loop clients for at least dur,
// ending on a block boundary. Clients take op indices from one counter, so
// the ops run are exactly 0..ops-1 whatever the interleaving.
func measure(d door, w workload, dur time.Duration) phase {
	var mu sync.Mutex
	var ph phase
	stopped := false
	runtime.GC() // start every phase from a collected heap
	cpu0, t0 := cpuTime(), time.Now()
	take := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if !stopped && ph.ops%w.block == 0 && time.Since(t0) >= dur {
			stopped = true
		}
		if stopped {
			return 0, false
		}
		ph.ops++
		return ph.ops - 1, true
	}
	var wg sync.WaitGroup
	for c := 0; c < w.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lat []float64
			failed := 0
			for i, ok := take(); ok; i, ok = take() {
				t := time.Now()
				if _, err := d.send(i, false); err != nil {
					if failed == 0 {
						fmt.Fprintf(os.Stderr, "bench: %s op %d: %v\n", w.name, i, err)
					}
					failed++
					continue
				}
				lat = append(lat, ms(time.Since(t)))
			}
			mu.Lock()
			ph.lat = append(ph.lat, lat...)
			ph.failed += failed
			mu.Unlock()
		}()
	}
	wg.Wait()
	ph.wall, ph.cpu = time.Since(t0), cpuTime()-cpu0
	sort.Float64s(ph.lat)
	return ph
}
