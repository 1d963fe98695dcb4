package interp

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"clara/internal/ir"
)

// freshContent numbers the modules these tests build, so each run (and
// each -count repetition) presents content the process-wide program cache
// has never seen.
var freshContent atomic.Int64

// newConcurrently calls New from n goroutines released together, each on
// its own module from build, and returns the machines and errors in
// goroutine order.
func newConcurrently(n int, build func() *ir.Module) ([]*Machine, []error) {
	mods := make([]*ir.Module, n)
	for i := range mods {
		mods[i] = build()
	}
	ms, errs := make([]*Machine, n), make([]error, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			ms[i], errs[i] = New(mods[i], Config{})
		}(i)
	}
	close(start)
	wg.Wait()
	return ms, errs
}

// TestConcurrentNewCompilesOnce: 8 goroutines racing to be the first New
// of one never-seen module — each with its own parse of the source, as the
// serving path has — compile it once, and every machine works.
func TestConcurrentNewCompilesOnce(t *testing.T) {
	src := fmt.Sprintf(`
global u32 seen;
void handle() { seen += %d; pkt_send(0); }
`, 1000+freshContent.Add(1))
	before := Compiles()
	ms, errs := newConcurrently(8, func() *ir.Module { return compile(t, "once", src) })
	if got := Compiles() - before; got != 1 {
		t.Errorf("compileModule ran %d times for 8 concurrent New calls, want 1", got)
	}
	for i, m := range ms {
		if errs[i] != nil {
			t.Fatalf("New %d: %v", i, errs[i])
		}
		p := tcpPacket(1, 2)
		if err := m.RunPacket(&p); err != nil {
			t.Fatalf("machine %d: %v", i, err)
		}
		if v, _ := m.Scalar("seen"); v < 1000 || p.OutPort != 0 {
			t.Errorf("machine %d: seen=%d OutPort=%d", i, v, p.OutPort)
		}
	}
}

// TestConcurrentNewSharesCompileError: a module ir.Verify rejects is
// compiled once too; all 8 racing callers, and a later one, get the same
// error, because the failure is kept as a property of the content.
func TestConcurrentNewSharesCompileError(t *testing.T) {
	name := fmt.Sprintf("midterm%d", freshContent.Add(1))
	build := func() *ir.Module {
		b := ir.NewBuilder(ir.HandlerName, ir.Void)
		b.Ret(nil)
		b.Call("pkt_drop", "", ir.Void)
		b.Ret(nil)
		return &ir.Module{Name: name, Func: b.F}
	}
	before := Compiles()
	_, errs := newConcurrently(8, build)
	_, late := New(build(), Config{})
	if got := Compiles() - before; got != 1 {
		t.Errorf("compileModule ran %d times for 9 New calls on a rejected module, want 1", got)
	}
	want := "interp: " + name + ": func handle: b0: terminator ret not last"
	for i, err := range append(errs, late) {
		if err == nil || !strings.Contains(err.Error(), want) || err.Error() != errs[0].Error() {
			t.Errorf("New %d: error = %v, want the racers' shared %q", i, err, want)
		}
	}
}
