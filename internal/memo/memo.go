// Package memo is the tree's one "compute once per key, keep the N most
// recent" store: a singleflight LRU. The fleet's prediction cache, the
// interpreter's compiled-program cache and the traffic replay cache are
// instances of it.
package memo

import (
	"container/list"
	"context"
	"errors"
	"sync"
	"sync/atomic"
)

// ErrPanicked is what waiters observe when the computation they were
// blocked on panicked. The panic itself keeps unwinding in the caller
// that ran the computation.
var ErrPanicked = errors.New("memo: computation panicked")

// Counts is a snapshot of a store's lifetime counters. Every Get is
// exactly one hit or one miss.
type Counts struct {
	Hits, Misses int64
	// Evictions counts entries dropped by the cap — not failed
	// computations, which are dropped so the next Get retries them.
	Evictions int64
}

// Store memoizes compute results by key under an LRU entry cap. Safe for
// concurrent use.
type Store[K comparable, V any] struct {
	mu  sync.Mutex
	cap int
	m   map[K]*list.Element // values are *entry[K, V]
	lru *list.List          // front = most recently used

	hits, misses, evictions atomic.Int64
}

// entry is one slot. It enters the map before its value exists, which is
// what makes concurrent first Gets of a key share one computation.
// Waiters hold the entry pointer, so evicting an entry in flight only
// affects later lookups, never a blocked waiter.
type entry[K comparable, V any] struct {
	key   K
	ready chan struct{} // closed once v and err are set
	v     V
	err   error
}

// New returns an empty store holding at most cap entries; cap must be at
// least 1.
func New[K comparable, V any](cap int) *Store[K, V] {
	return &Store[K, V]{cap: cap, m: make(map[K]*list.Element), lru: list.New()}
}

// Get returns the value stored under k. The first caller for a key runs
// compute, outside the store's lock; callers arriving while it runs block
// until it finishes and share its outcome. hit reports that this caller
// skipped the computation and got a value: a waiter whose leader failed
// shares the leader's error (ErrPanicked if it panicked) and is a miss. A
// failed computation is not retained, so the next Get of k computes
// again. Going over the cap evicts the least recently used entry, in
// flight or not.
//
// ctx bounds only the wait: a waiter whose ctx ends before the leader
// finishes returns ctx.Err() — a miss, the entry untouched. compute is
// never interrupted by Get; one that should stop observes a context of
// its own.
func (s *Store[K, V]) Get(ctx context.Context, k K, compute func() (V, error)) (v V, hit bool, err error) {
	s.mu.Lock()
	if el, ok := s.m[k]; ok {
		s.lru.MoveToFront(el)
		e := el.Value.(*entry[K, V])
		s.mu.Unlock()
		select {
		case <-e.ready:
		case <-ctx.Done():
			s.misses.Add(1)
			return v, false, ctx.Err()
		}
		if e.err != nil {
			s.misses.Add(1)
			return v, false, e.err
		}
		s.hits.Add(1)
		return e.v, true, nil
	}
	e := &entry[K, V]{key: k, ready: make(chan struct{})}
	s.m[k] = s.lru.PushFront(e)
	for s.lru.Len() > s.cap {
		oldest := s.lru.Back()
		s.lru.Remove(oldest)
		delete(s.m, oldest.Value.(*entry[K, V]).key)
		s.evictions.Add(1)
	}
	s.mu.Unlock()
	s.misses.Add(1)

	done := false
	defer func() {
		if !done { // compute panicked; the panic is unwinding past us
			e.err = ErrPanicked
		}
		if e.err != nil {
			s.mu.Lock()
			// Drop the entry only if it is still ours: it may have been
			// evicted, and the key claimed again, while we computed.
			if el, ok := s.m[k]; ok && el.Value.(*entry[K, V]) == e {
				s.lru.Remove(el)
				delete(s.m, k)
			}
			s.mu.Unlock()
		}
		close(e.ready)
	}()
	e.v, e.err = compute()
	done = true
	return e.v, false, e.err
}

// Len reports the number of resident entries, completed or in flight.
func (s *Store[K, V]) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.m)
}

// Counts returns the lifetime counters.
func (s *Store[K, V]) Counts() Counts {
	return Counts{Hits: s.hits.Load(), Misses: s.misses.Load(), Evictions: s.evictions.Load()}
}

// Stats is what a store reports about itself: the lifetime counters and
// how many entries are resident now.
type Stats struct {
	Counts
	Resident int
}

// Stats returns the counters and the resident count.
func (s *Store[K, V]) Stats() Stats {
	return Stats{Counts: s.Counts(), Resident: s.Len()}
}
