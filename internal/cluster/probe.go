package cluster

import (
	"context"
	"net/http"
	"time"
)

// probeLoop health-checks one worker until ctx ends. A live worker is
// probed every ProbeInterval; once it fails (or a dispatch marks it
// dead first), the interval doubles per failed probe up to
// ProbeBackoffMax — a crashed worker should not be hammered at full
// cadence, but a restarted one should be rediscovered within one
// backoff step. A 200 /healthz resets both the liveness and the
// cadence, which is what restores the worker's hash range: owner()
// consults only the alive flag, so rejoin is effective the instant the
// probe succeeds.
func (c *Coordinator) probeLoop(ctx context.Context, w *workerState) {
	interval := c.cfg.ProbeInterval
	t := time.NewTimer(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		ok := c.probe(ctx, w)
		c.mu.Lock()
		switch {
		case ok:
			w.alive = true
			interval = c.cfg.ProbeInterval
		case w.alive:
			w.alive = false
			w.deaths++
			interval = c.cfg.ProbeInterval
		default:
			interval *= 2
			if interval > c.cfg.ProbeBackoffMax {
				interval = c.cfg.ProbeBackoffMax
			}
		}
		c.mu.Unlock()
		t.Reset(interval)
	}
}

// probe issues one /healthz check. Anything but a 200 inside the
// probe timeout — transport error, 503 while training or draining —
// counts as down; a draining worker in particular must shed its hash
// range before it stops answering analyses.
func (c *Coordinator) probe(ctx context.Context, w *workerState) bool {
	timeout := c.cfg.ProbeInterval
	if timeout > 5*time.Second {
		timeout = 5 * time.Second
	}
	pctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	resp, err := c.call(pctx, "GET", w, "/healthz", nil)
	if err != nil {
		return false
	}
	drain(resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}
