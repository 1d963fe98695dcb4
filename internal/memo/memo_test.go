package memo

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// front reports the most recently used key.
func (s *Store[K, V]) front() K {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lru.Front().Value.(*entry[K, V]).key
}

// attach starts get — a Get of k, whose entry must be in flight — on its
// own goroutine and returns once that Get is attached to the entry.
// Attaching touches k, so the test first moves the resident key park to
// the front and then waits for k to take its place: an event, not a sleep.
func attach(t *testing.T, s *Store[string, int], k, park string, wg *sync.WaitGroup, get func()) {
	t.Helper()
	if _, hit, err := s.Get(context.Background(), park, nil); !hit || err != nil {
		t.Fatalf("park key %q not resident: hit=%v err=%v", park, hit, err)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		get()
	}()
	waitFront(t, s, k)
}

func waitFront(t *testing.T, s *Store[string, int], k string) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); s.front() != k; {
		if time.Now().After(deadline) {
			t.Fatalf("waiter never attached to %q", k)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// blockedLeader starts a Get of k whose compute signals that it is running
// and then blocks until release is closed, returning what finish returns.
// It returns once the computation is in flight.
func blockedLeader(s *Store[string, int], k string, release <-chan struct{}, wg *sync.WaitGroup, finish func() (int, error), got func(int, bool, error)) {
	started := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		got(s.Get(context.Background(), k, func() (int, error) {
			close(started)
			<-release
			return finish()
		}))
	}()
	<-started
}

func constant(v int) func() (int, error) { return func() (int, error) { return v, nil } }

func TestSingleflight(t *testing.T) {
	s := New[string, int](8)
	var mu sync.Mutex
	calls := 0
	var wg sync.WaitGroup
	hits := make([]bool, 16)
	for i := range hits {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, hit, err := s.Get(context.Background(), "k", func() (int, error) {
				mu.Lock()
				calls++
				mu.Unlock()
				return 7, nil
			})
			if v != 7 || err != nil {
				t.Errorf("Get = %d, %v; want 7, nil", v, err)
			}
			hits[i] = hit
		}(i)
	}
	wg.Wait()
	n := 0
	for _, h := range hits {
		if h {
			n++
		}
	}
	if calls != 1 || n != 15 {
		t.Errorf("compute ran %d times with %d hits; want 1 and 15", calls, n)
	}
	if c := s.Counts(); c != (Counts{Hits: 15, Misses: 1}) {
		t.Errorf("counts %+v, want 15 hits, 1 miss", c)
	}
}

// TestLeaderError: waiters blocked on a leader that fails share its error
// without counting a hit, the entry is not retained, and the next Get
// computes again.
func TestLeaderError(t *testing.T) {
	s := New[string, int](8)
	s.Get(context.Background(), "park", constant(0))
	boom := errors.New("leader failed")
	release := make(chan struct{})
	var wg sync.WaitGroup
	blockedLeader(s, "k", release, &wg,
		func() (int, error) { return 0, boom },
		func(_ int, hit bool, err error) {
			if hit || !errors.Is(err, boom) {
				t.Errorf("leader: hit=%v err=%v, want miss and boom", hit, err)
			}
		})
	const waiters = 8
	for i := 0; i < waiters; i++ {
		attach(t, s, "k", "park", &wg, func() {
			_, hit, err := s.Get(context.Background(), "k", func() (int, error) {
				t.Error("attached waiter ran its own compute")
				return 0, nil
			})
			if hit || !errors.Is(err, boom) {
				t.Errorf("waiter: hit=%v err=%v, want miss and boom", hit, err)
			}
		})
	}
	close(release)
	wg.Wait()
	if s.Len() != 1 { // park
		t.Errorf("failed entry retained: %d resident, want 1", s.Len())
	}
	// 1 park miss + leader + 8 waiters; the 8 parks are the only hits.
	if c := s.Counts(); c != (Counts{Hits: waiters, Misses: 2 + waiters}) {
		t.Errorf("counts %+v", c)
	}
	if v, hit, err := s.Get(context.Background(), "k", constant(3)); v != 3 || hit || err != nil {
		t.Errorf("after failure: %d hit=%v err=%v; want a recompute", v, hit, err)
	}
	if v, hit, err := s.Get(context.Background(), "k", nil); v != 3 || !hit || err != nil {
		t.Errorf("completed entry: %d hit=%v err=%v; want a hit", v, hit, err)
	}
}

// TestLeaderPanic: the panic reaches the leader's caller, waiters get
// ErrPanicked instead of blocking forever, and the key is not poisoned.
func TestLeaderPanic(t *testing.T) {
	s := New[string, int](8)
	s.Get(context.Background(), "park", constant(0))
	release := make(chan struct{})
	started := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer func() {
			if r := recover(); r != "compute exploded" {
				t.Errorf("leader recovered %v, want the compute's panic", r)
			}
		}()
		s.Get(context.Background(), "k", func() (int, error) {
			close(started)
			<-release
			panic("compute exploded")
		})
	}()
	<-started
	for i := 0; i < 4; i++ {
		attach(t, s, "k", "park", &wg, func() {
			if _, hit, err := s.Get(context.Background(), "k", nil); hit || !errors.Is(err, ErrPanicked) {
				t.Errorf("waiter: hit=%v err=%v, want miss and ErrPanicked", hit, err)
			}
		})
	}
	close(release)
	wg.Wait()
	if s.Len() != 1 {
		t.Fatalf("panicked entry retained: %d resident, want 1", s.Len())
	}
	if v, hit, err := s.Get(context.Background(), "k", constant(5)); v != 5 || hit || err != nil {
		t.Errorf("key poisoned after panic: %d hit=%v err=%v", v, hit, err)
	}
}

// TestInFlightEviction: with four computations in flight under a cap of 2
// the store never holds more than 2 entries, the two evictions are
// counted, every leader — and a waiter attached to an entry that is then
// evicted — still gets its own value, and an evicted key computes again.
func TestInFlightEviction(t *testing.T) {
	s := New[string, int](2)
	keys := []string{"a", "b", "c", "d"}
	release := make(chan struct{})
	var wg sync.WaitGroup
	lead := func(i int) {
		blockedLeader(s, keys[i], release, &wg, constant(i+10), func(v int, hit bool, err error) {
			if v != i+10 || hit || err != nil {
				t.Errorf("leader %s: %d hit=%v err=%v, want %d", keys[i], v, hit, err, i+10)
			}
		})
		if s.Len() > 2 {
			t.Fatalf("%d resident after %d leaders, cap 2", s.Len(), i+1)
		}
	}
	lead(0)
	lead(1)
	// "a" is still in flight and becomes most recent, so "c" evicts "b"
	// and "d" evicts "a" with this waiter attached.
	wg.Add(1)
	go func() {
		defer wg.Done()
		if v, hit, err := s.Get(context.Background(), "a", nil); v != 10 || !hit || err != nil {
			t.Errorf("waiter on evicted entry: %d hit=%v err=%v, want 10 as a hit", v, hit, err)
		}
	}()
	waitFront(t, s, "a")
	lead(2)
	lead(3)
	if c := s.Counts(); c.Evictions != 2 {
		t.Errorf("evictions = %d, want 2", c.Evictions)
	}
	close(release)
	wg.Wait()
	if s.Len() != 2 {
		t.Errorf("%d resident after the fills, want 2", s.Len())
	}
	if v, hit, _ := s.Get(context.Background(), "a", constant(99)); v != 99 || hit {
		t.Errorf("evicted key: %d hit=%v, want a recompute", v, hit)
	}
}

// TestWaiterContext: a waiter's context bounds its own wait and nothing
// else. One whose context ends first returns that context's error as a
// miss, without running compute and without disturbing the entry; the
// leader finishes, a patient waiter shares its value, and the key stays
// resident.
func TestWaiterContext(t *testing.T) {
	s := New[string, int](8)
	s.Get(context.Background(), "park", constant(0))
	release := make(chan struct{})
	var wg sync.WaitGroup
	blockedLeader(s, "k", release, &wg, constant(7), func(v int, hit bool, err error) {
		if v != 7 || hit || err != nil {
			t.Errorf("leader: %d hit=%v err=%v, want 7 as a miss", v, hit, err)
		}
	})
	attach(t, s, "k", "park", &wg, func() {
		if v, hit, err := s.Get(context.Background(), "k", nil); v != 7 || !hit || err != nil {
			t.Errorf("patient waiter: %d hit=%v err=%v, want 7 as a hit", v, hit, err)
		}
	})
	ctx, cancel := context.WithCancel(context.Background())
	gone := make(chan struct{})
	attach(t, s, "k", "park", &wg, func() {
		defer close(gone)
		_, hit, err := s.Get(ctx, "k", func() (int, error) {
			t.Error("attached waiter ran its own compute")
			return 0, nil
		})
		if hit || !errors.Is(err, context.Canceled) {
			t.Errorf("canceled waiter: hit=%v err=%v, want a miss with context.Canceled", hit, err)
		}
	})
	cancel()
	<-gone // returns while the leader is still blocked
	// Misses: park's fill, the leader, the canceled waiter. Hits: attach
	// touching park twice.
	if c := s.Counts(); c != (Counts{Hits: 2, Misses: 3}) {
		t.Errorf("counts with the leader in flight %+v, want 2 hits, 3 misses", c)
	}
	close(release)
	wg.Wait()
	if v, hit, err := s.Get(context.Background(), "k", nil); v != 7 || !hit || err != nil {
		t.Errorf("after the leader: %d hit=%v err=%v, want the entry resident", v, hit, err)
	}
	if st := s.Stats(); st.Resident != 2 || st.Counts != (Counts{Hits: 4, Misses: 3}) {
		t.Errorf("stats %+v, want 2 resident, 4 hits, 3 misses", st)
	}
}

func TestLRUOrder(t *testing.T) {
	s := New[string, int](2)
	s.Get(context.Background(), "a", constant(1))
	s.Get(context.Background(), "b", constant(2))
	if _, hit, _ := s.Get(context.Background(), "a", nil); !hit {
		t.Fatal("resident entry missed")
	}
	s.Get(context.Background(), "c", constant(3))
	if s.Len() != 2 {
		t.Fatalf("%d resident, want cap 2", s.Len())
	}
	if _, hit, _ := s.Get(context.Background(), "a", nil); !hit {
		t.Error("touched entry was evicted")
	}
	if _, hit, _ := s.Get(context.Background(), "b", constant(2)); hit {
		t.Error("untouched entry survived past the cap")
	}
}

// TestWarmGetZeroAllocs pins a hit at zero heap allocations: the job path
// makes three such lookups (prediction, compiled program, trace), so a hit
// must cost what the hand-written caches it replaced cost. The key has the
// fleet's shape and the closure captures, as the callers' closures do.
func TestWarmGetZeroAllocs(t *testing.T) {
	type key struct {
		hash  [32]byte
		accel struct{ crc, lpm bool }
	}
	s := New[key, *int](4)
	k := key{hash: [32]byte{1, 2, 3}}
	x := 42
	s.Get(context.Background(), k, func() (*int, error) { return &x, nil })
	allocs := testing.AllocsPerRun(1000, func() {
		if v, hit, err := s.Get(context.Background(), k, func() (*int, error) { return &x, nil }); !hit || err != nil || *v != 42 {
			t.Fatalf("warm Get: hit=%v err=%v", hit, err)
		}
	})
	if allocs != 0 {
		t.Errorf("warm Get allocates %.1f times, want 0", allocs)
	}
}
