package interp

import (
	"fmt"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"clara/internal/lang"
)

// TestProgramKeepsNoSource: the process-wide program store keeps a compiled
// program after its module is gone, and that program holds no string cut
// from the module's source (hooks report codes and indices, and compile
// errors are written while the module is in hand), so the source of a
// never-seen request is collected.
func TestProgramKeepsNoSource(t *testing.T) {
	src := fmt.Sprintf(`
map<u64,u64> flows[16];
vec<u64> recent[8];
global u64 seen[4];
void handle() {
	u64 k = u64(pkt_ip_src()) + %d;
	map_insert(flows, k, map_find(flows, k) + 1);
	vec_push(recent, k);
	seen[k & 3] += u64(hash32(k));
	pkt_send(0);
}
`, 2000+freshContent.Add(1))
	freed := make(chan struct{})
	before := Compiles()
	precompileFrom(t, src, freed)
	if Compiles() == before {
		t.Fatal("the program store already held this program; the test needs a fresh one")
	}
	for i := 0; i < 100; i++ {
		runtime.GC()
		select {
		case <-freed:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("the source stays reachable after its module is dropped: the compiled program holds a string cut from it")
}

// precompileFrom compiles src from a copy in memory of its own, which
// closes freed when it is collected, and warms the program store with it.
// Nothing it builds outlives the call but what the store keeps.
func precompileFrom(t *testing.T, src string, freed chan struct{}) {
	t.Helper()
	buf := make([]byte, len(src))
	copy(buf, src)
	runtime.SetFinalizer(&buf[0], func(*byte) { close(freed) })
	mod, err := lang.Compile("keepsnosource", unsafe.String(&buf[0], len(buf)))
	if err != nil {
		t.Fatal(err)
	}
	if err := Precompile(mod); err != nil {
		t.Fatal(err)
	}
}
