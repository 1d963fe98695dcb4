// Package interp executes IR modules over packets. It serves two roles
// from the paper, with one set of semantics:
//
//   - Host profiling: Clara runs the reverse-ported Click NF on the host
//     with a workload to collect stateful access frequencies (§4.3, §4.4).
//
//   - NIC-semantics execution: the SmartNIC simulator (internal/nicsim)
//     replays the NF's blocks and state accesses as NIC events.
//
// Both need the Netronome library's data structures, which is what reverse
// porting (§3.3) puts on the host: maps are fixed arrays of 4-slot
// buckets that never grow (a full bucket drops the insert), vectors have a
// fixed capacity, and deletions only mark an entry invalid. So the host's
// control flow matches the NIC's, and every map and vector call reports
// its probe count and address for the profiler and the simulator to
// charge.
//
// The interpreter precompiles IR into a flat internal form so per-packet
// execution involves no map lookups or allocation. Compiled programs are
// immutable and shared: a bounded cache keyed by the module's content
// hash (ir.Fingerprint, the same key the fleet module store and the
// cluster coordinator's routing use) means a fleet analyzing the same NF
// under many workloads — or a serving worker receiving the same source
// in many requests — compiles it once. Constants are pooled into the
// tail of the value array at compile time, so every operand read is one
// unconditional slice index, and fuel/step accounting is charged per
// basic block instead of per instruction (blocks always retire fully —
// the terminator is the last instruction — so counts stay exact).
//
// The framework APIs are ir.APIs; the interpreter adds one thing per API,
// the op a call to it compiles to (apiOps). A compiled call carries the
// API's code and its global's index, which is what the hooks report, and
// compile errors take their names from the module while it is in hand, so
// a cached program pins none of the request source it was compiled from.
//
// Packets run on the step engine (compile.go, steps.go): the flat form is
// lowered once more into superblocks — chains of blocks joined by
// unconditional branches, each one list of pre-resolved steps over one
// register file, with local loads elided and constants and local stores
// folded into the step that produces the value. A machine
// with Hooks attached runs the reference loop instead (runReference),
// which walks the flat form one instruction at a time and fires the
// hooks; it is the semantic definition of execution, and the tests hold
// the step engine to it bit for bit — Steps, fuel, counters, packet and
// state mutations. Nothing selects between the two but the hooks.
package interp

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math/bits"
	"sync"
	"unsafe"

	"clara/internal/ir"
	"clara/internal/memo"
	"clara/internal/traffic"
)

// BucketSlots is the number of entries per map bucket.
const BucketSlots = 4

// Hooks receive execution events; any field may be nil. Block indices refer
// to the handler function's CFG.
type Hooks struct {
	// OnBlock fires when a basic block begins executing.
	OnBlock func(block int)
	// OnState fires for each stateful global access (GLoad/GStore) with
	// the global's index in the module's Globals; addr is the element
	// index for arrays (0 for scalars).
	OnState func(global int, store bool, addr uint64, block int)
	// OnAPI fires for each framework API call with the API's code and the
	// index of the global it names (-1 for none). probes carries the
	// call's dynamic work: slot probes for map APIs, bytes processed for
	// checksum/CRC, 0 otherwise. addr localizes the access (bucket base
	// slot for maps) for cache modeling.
	OnAPI func(api ir.API, global int, probes int, addr uint64, block int)
}

// Route is one LPM rule for the lpm_hw engine.
type Route struct {
	Prefix uint32
	Len    int // prefix length in bits, 0..32
	Port   uint32
}

// Config configures a Machine.
type Config struct {
	// Fuel bounds interpreted steps per packet (0 = default).
	Fuel int
	// LPMTable backs the lpm_hw accelerator.
	LPMTable []Route
}

const defaultFuel = 1 << 20

// rngInit is the rand32 intrinsic's starting state: every machine draws
// the same sequence, so a run is a function of the module, the setup and
// the packets alone.
const rngInit = 0x9E3779B97F4A7C15

// ErrFuel is returned when a packet exceeds the step budget.
var ErrFuel = fmt.Errorf("interp: fuel exhausted (runaway loop?)")

// xop is the interpreter's internal opcode space. It refines ir.Op with
// compile-time specializations the dispatch loop would otherwise branch
// on per execution: global accesses split by kind (scalar vs array), and
// an ICmp immediately consumed by a CondBr fuses into one compare-branch
// instruction (the fused form still writes the comparison result to its
// IR id, so downstream reads observe identical state).
type xop uint8

const (
	xAdd xop = iota
	xSub
	xMul
	xUDiv
	xURem
	xAnd
	xOr
	xXor
	xShl
	xLShr
	xNot
	xMask // ZExt and Trunc: both reduce to masking under the result type
	xICmp
	xLLoad
	xLStore
	xGLoadS   // scalar global load
	xGLoadA   // array global load
	xGLoadAP  // array global load, power-of-two length (mask, no div)
	xGStoreS  // scalar global store
	xGStoreA  // array global store
	xGStoreAP // array global store, power-of-two length
	xCall
	xCallPayload    // pkt_payload(i): hot per-byte read, inlined
	xCallSetPayload // pkt_set_payload(i, v): hot per-byte write, inlined
	xCallHash32     // hash32(k): pure mix, inlined
	xPktGet         // a header getter: reads one packet field
	xPktSet         // a header setter or a disposition: writes the packet
	// xCall through xPktSet are the call class: the ops a framework API
	// call compiles to.
	xBr
	xCondBr
	xRet
	xCmpBr // fused ICmp+CondBr
)

// apiOps is the op a call to each framework API compiles to. The packet
// APIs and the hash mix touch no global, so the counters never see them
// and both loops run them without the API-call detour: the per-byte
// payload intrinsics, which dominate byte-granular elements (ciphers,
// sketches), and the hash mix get ops of their own (xCallPayload,
// xCallSetPayload, xCallHash32); every other packet API reads one field
// (xPktGet, via pktGet) or writes the packet (xPktSet, via pktSet). The
// rest are xCall, which hands the call to Machine.call. An API left out
// would read as xAdd; TestEveryAPICompilesToACallOp fails on it.
var apiOps = [len(ir.APIs)]xop{
	// Header getters.
	ir.APIPktLen: xPktGet, ir.APIPktEthType: xPktGet, ir.APIPktIPProto: xPktGet, ir.APIPktIPSrc: xPktGet,
	ir.APIPktIPDst: xPktGet, ir.APIPktIPTTL: xPktGet, ir.APIPktIPLen: xPktGet, ir.APIPktIPHL: xPktGet,
	ir.APIPktTCPSport: xPktGet, ir.APIPktTCPDport: xPktGet, ir.APIPktTCPSeq: xPktGet, ir.APIPktTCPAck: xPktGet,
	ir.APIPktTCPFlags: xPktGet, ir.APIPktTCPOff: xPktGet, ir.APIPktUDPSport: xPktGet, ir.APIPktUDPDport: xPktGet,
	ir.APIPktPayloadLen: xPktGet, ir.APIPktTime: xPktGet,
	// Header setters and dispositions.
	ir.APIPktSetIPSrc: xPktSet, ir.APIPktSetIPDst: xPktSet, ir.APIPktSetIPTTL: xPktSet,
	ir.APIPktSetTCPSport: xPktSet, ir.APIPktSetTCPDport: xPktSet, ir.APIPktSetTCPSeq: xPktSet,
	ir.APIPktSetTCPAck: xPktSet, ir.APIPktSetTCPFlags: xPktSet, ir.APIPktSetUDPSport: xPktSet,
	ir.APIPktSetUDPDport: xPktSet, ir.APIPktCsumUpdate: xPktSet, ir.APIPktSend: xPktSet, ir.APIPktDrop: xPktSet,
	// The hash mix and per-byte payload access.
	ir.APIHash32: xCallHash32, ir.APIPktPayload: xCallPayload, ir.APIPktSetPayload: xCallSetPayload,
	// Machine.call's own, then its map and vector calls.
	ir.APIRand32: xCall, ir.APIEwmaRate: xCall, ir.APICRC32HW: xCall, ir.APILPMHW: xCall,
	ir.APIMapFind: xCall, ir.APIMapContains: xCall, ir.APIMapInsert: xCall, ir.APIMapRemove: xCall,
	ir.APIMapSize: xCall, ir.APIVecPush: xCall, ir.APIVecGet: xCall, ir.APIVecSet: xCall,
	ir.APIVecDelete: xCall, ir.APIVecLen: xCall,
}

// cInstr is one compiled instruction. Operands are plain indices into
// the machine's value array: instruction results live at their IR ids
// (< NumVals) and constants are pooled at indices >= NumVals, preloaded
// when the machine is built, so reading an operand never branches on its
// kind. The struct is kept flat and narrow (no slices, no strings) so a
// cache line holds more than one instruction.
type cInstr struct {
	mask   uint64
	a0, a1 int32 // operand value indices (every op has arity <= 2)
	id     int32
	slot   int32
	gidx   int32 // index into machine global tables; -1 for none
	t, f   int32
	op     xop
	api    ir.API
	pred   ir.Pred
	nargs  uint8
}

type cBlock struct {
	instrs []cInstr
	// size is the source IR instruction count; fuel and Steps are charged
	// by it, so fusion never changes the observable cost model.
	size int
}

// program is a module's compiled, immutable form: every Machine built
// for the same module shares one program (blocks, const pool, global
// index) and only allocates its own mutable state. Compilation does not
// depend on Config — fuel and the LPM table only matter at runtime — so
// one program serves every machine of the module.
//
// The step-engine lowering hangs off the program lazily, built on first
// demand under lowerOnce so every machine for the module shares it.
type program struct {
	blocks []cBlock
	nvals  int      // f.NumVals; const pool occupies vals[nvals:]
	pool   []uint64 // pooled constants, deduplicated by value
	nslots int
	gidx   map[string]int
	// glen is each global's declared length, which the lowering bakes
	// into array steps as a pow2 mask or a modulo length.
	glen []int

	lowerOnce sync.Once
	lowered   lowered
}

// programs is the compiled-program cache. It keys by content hash
// (ir.Fingerprint) rather than pointer identity, so distinct parses of
// identical source — the serving path hands each request a fresh
// *ir.Module — share one compiled program and its lowering; hashing is
// sound because ir.Modules are immutable once built. Library modules are
// singletons (a few dozen), so in steady state the fleet compiles each NF
// once; freshly parsed modules (e.g. per-request submissions in serving
// mode) each miss once and age out of the 128 entries.
var programs = memo.New[[sha256.Size]byte, compiled](128)

// compiled is what the cache holds for a module. A compile error is part
// of the value: it is a property of the content, so it is kept and
// answered again rather than recompiled.
type compiled struct {
	prog *program
	err  error
}

// ProgramStoreStats reports the compiled-program store's counters, for
// /metrics. The store is the process's, not one fleet's.
func ProgramStoreStats() memo.Stats { return programs.Stats() }

// programFor returns mod's compiled program. Concurrent first requests
// for one module share a single compile.
func programFor(mod *ir.Module) (*program, error) {
	c, _, err := programs.Get(context.Background(), ir.Fingerprint(mod), func() (compiled, error) {
		prog, err := compileModule(mod)
		return compiled{prog, err}, nil
	})
	if err != nil { // the compile we waited on panicked
		return nil, err
	}
	return c.prog, c.err
}

// Precompile warms the program cache for mod and builds its step-engine
// lowering, so the first packet of a later analysis pays no compile
// latency. Errors are the same ones New would report.
func Precompile(mod *ir.Module) error {
	prog, err := programFor(mod)
	if err != nil {
		return err
	}
	prog.lowering()
	return nil
}

// compiler builds one program; pool deduplicates constants by (already
// masked) value.
type compiler struct {
	p    *program
	mod  *ir.Module
	pool map[uint64]int32
}

func compileModule(mod *ir.Module) (*program, error) {
	if err := ir.Verify(mod); err != nil {
		return nil, fmt.Errorf("interp: %s: %w", mod.Name, err)
	}
	f := mod.Func
	c := &compiler{
		p: &program{
			nvals:  f.NumVals,
			nslots: f.NSlots,
			gidx:   make(map[string]int, len(mod.Globals)),
		},
		mod:  mod,
		pool: make(map[uint64]int32),
	}
	c.p.glen = make([]int, len(mod.Globals))
	for i, g := range mod.Globals {
		c.p.gidx[g.Name] = i
		c.p.glen[i] = g.Len
	}
	c.p.blocks = make([]cBlock, len(f.Blocks))
	for bi, b := range f.Blocks {
		cb := &c.p.blocks[bi]
		cb.size = len(b.Instrs)
		for k := 0; k < len(b.Instrs); k++ {
			in := b.Instrs[k]
			ci := c.compileInstr(in)
			// Fuse an ICmp directly consumed by the following CondBr into
			// one compare-branch. The fused instruction still stores the
			// comparison result, so any other use of the ICmp id (and any
			// hook or counter) observes exactly the unfused state; only the
			// dispatch count shrinks — cb.size keeps the cost model intact.
			if in.Op == ir.OpICmp && k+1 < len(b.Instrs) {
				nx := b.Instrs[k+1]
				if nx.Op == ir.OpCondBr && nx.Args[0].Kind == ir.VInstr && nx.Args[0].ID == in.ID {
					ci.op = xCmpBr
					ci.t, ci.f = int32(nx.True), int32(nx.False)
					k++
				}
			}
			cb.instrs = append(cb.instrs, ci)
		}
	}
	return c.p, nil
}

// mslot is one map slot. The generation stamp makes recycling a whole
// table O(1): a slot whose gen trails the table's reads as free, so
// handing a multi-MB flow table to the next machine costs one counter bump
// instead of a memclr (padding absorbs the field — mslot stays 24 bytes).
type mslot struct {
	key   uint64
	val   uint64
	gen   uint32
	state uint8 // 0 free, 1 used, 2 invalid (deleted); valid only when gen is current
}

type nicMapState struct {
	slots   []mslot
	buckets int
	size    int
	gen     uint32
	// FailedInserts counts inserts dropped because a bucket was full —
	// the kind of behavioural divergence reverse porting exists to expose.
	failedInserts int
}

// st reads a slot's effective state under the current generation.
func (nm *nicMapState) st(s *mslot) uint8 {
	if s.gen != nm.gen {
		return 0
	}
	return s.state
}

// State slabs. A machine's big state — global arrays, vector storage,
// map slot tables — comes from package-level pools indexed by
// size class and goes back on Release, so what is recycled is memory that
// reads as zero (or, for slot tables, as free), whichever program used it
// last: never-seen programs reuse state, and idle memory is bounded by
// concurrency × the largest NF rather than by how many programs are
// cached. Class c holds slabs of capacity exactly 2^c (c = ⌈log2 len⌉).
// The array is fixed because lengths come from submitted source: a pool
// per length would be a table a client can grow without bound.
const (
	slabClasses = 24
	// slabMaxBytes caps a pooled slab; anything larger is allocated exactly
	// and left to the collector on Release.
	slabMaxBytes = 8 << 20
)

// slabPool recycles []T backing arrays; every pooled slab is all zero.
type slabPool[T any] [slabClasses]sync.Pool

var (
	wordSlabs slabPool[uint64]
	flagSlabs slabPool[bool]
	mapSlabs  [slabClasses]sync.Pool // *nicMapState, by slot-table class
)

// slabClass returns the class of an n-element []T and whether slabs of
// that class are pooled.
func slabClass[T any](n int) (int, bool) {
	c := bits.Len(uint(n - 1))
	return c, n > 0 && c < slabClasses && unsafe.Sizeof(*new(T))<<c <= slabMaxBytes
}

// get returns a zeroed []T of length n.
func (sp *slabPool[T]) get(n int) []T {
	c, ok := slabClass[T](n)
	if !ok {
		return make([]T, n)
	}
	if v := sp[c].Get(); v != nil {
		return (*v.(*[]T))[:n]
	}
	return make([]T, n, 1<<c)
}

// put zeroes s and recycles it. Only s[:len] can be dirty: the rest of the
// capacity was zero when get handed it out.
func (sp *slabPool[T]) put(s []T) {
	if c, ok := slabClass[T](cap(s)); ok && cap(s) == 1<<c {
		clear(s)
		sp[c].Put(&s)
	}
}

// newNICMapState returns an empty table of the given bucket count.
func newNICMapState(buckets int) *nicMapState {
	n := buckets * BucketSlots
	c, ok := slabClass[mslot](n)
	if !ok {
		return &nicMapState{slots: make([]mslot, n), buckets: buckets, gen: 1}
	}
	if v := mapSlabs[c].Get(); v != nil {
		nm := v.(*nicMapState)
		nm.slots, nm.buckets = nm.slots[:n], buckets
		return nm
	}
	return &nicMapState{slots: make([]mslot, n, 1<<c), buckets: buckets, gen: 1}
}

// release recycles the table. Advancing the generation makes every slot
// read as free without touching it; on uint32 wraparound the whole
// capacity is cleared for real, so stamps from four billion generations
// ago — a longer map's included — cannot alias the new one.
func (nm *nicMapState) release() {
	if c, ok := slabClass[mslot](cap(nm.slots)); ok && cap(nm.slots) == 1<<c {
		nm.size, nm.failedInserts = 0, 0
		if nm.gen++; nm.gen == 0 {
			clear(nm.slots[:cap(nm.slots)])
			nm.gen = 1
		}
		mapSlabs[c].Put(nm)
	}
}

// vecState backs a Click-Vector-style global with the NIC library's
// semantics (§3.3): capacity is fixed at the declared length, a push takes
// the first free or tombstoned slot, and a delete only clears the slot's
// valid flag — nothing shifts.
type vecState struct {
	vals  []uint64
	valid []bool
	live  int
	// dropped counts pushes refused by a full vector.
	dropped int
}

type globalState struct {
	g *ir.Global
	// amask is len(array)-1 for power-of-two arrays (masked indexing).
	amask uint64
	// exactly one of these is active, by g.Kind
	scalar uint64
	array  []uint64
	nmap   *nicMapState
	vec    *vecState
}

// Counters accumulate the host-profiling signals natively, replacing
// closure hooks on the hot path. Weights match the Hooks semantics
// exactly — Block counts block entries, State counts GLoad/GStore
// accesses, and API accumulates per-call probe counts — so a profile
// built from Counters is identical to one built from
// OnBlock/OnState/OnAPI. Read them through Machine.Counters.
type Counters struct {
	// Block[b] counts executions of block b.
	Block []uint64
	// State[g*NBlocks+b] counts stateful accesses to global g from block
	// b; API[g*NBlocks+b] sums API probe counts charged to global g from
	// block b (calls with zero probes or no global are not recorded,
	// mirroring the profiler's OnAPI filter).
	State []uint64
	API   []uint64
	// NBlocks is the row stride of State and API.
	NBlocks int
	// entries[c] counts the step engine's runs of chain c not yet folded
	// into Block and State.
	entries []uint64
}

// Machine executes one module over packets.
type Machine struct {
	Mod    *ir.Module
	cfg    Config
	hooks  Hooks
	prog   *program // shared, immutable
	blocks []cBlock // prog.blocks; kept unrolled for the reference loop
	// regs is the single backing array for all mutable per-packet cells:
	// local slots first, then instruction results, then the const pool,
	// then one spare cell.
	// vals and slots are views into it. The step engine addresses regs
	// with operands pre-offset into the combined space (one slice instead
	// of two), while the reference loop and Machine.call keep addressing
	// the vals/slots views.
	regs  []uint64
	vals  []uint64 // [0:nvals) instruction results, [nvals:) const pool
	slots []uint64
	gl    []*globalState
	gidx  map[string]int // shared with the program; read-only
	ctr   *Counters
	rng   uint64
	pkt   *traffic.Packet
	fuel  int
	// ewma is the host-side double-precision rate average backing the
	// ewma_rate intrinsic (Click AverageCounter semantics).
	ewma float64

	// Steps is the cumulative interpreted instruction count.
	Steps uint64
}

// New builds a machine for mod, compiling its handler on first use (the
// compiled program is cached and shared across machines). The machine
// itself is a small shell built fresh each time; its arrays, vectors and
// map tables come from the state slabs.
func New(mod *ir.Module, cfg Config) (*Machine, error) {
	prog, err := programFor(mod)
	if err != nil {
		return nil, err
	}
	if cfg.Fuel == 0 {
		cfg.Fuel = defaultFuel
	}
	nslots := int(prog.vsOff())
	// One spare cell past the pool: an operand field an instruction does
	// not use is 0, and a no-argument xPktSet reads it (and ignores it)
	// even in a handler with no values or constants.
	regs := make([]uint64, nslots+prog.nvals+len(prog.pool)+1)
	m := &Machine{
		Mod:    mod,
		cfg:    cfg,
		prog:   prog,
		blocks: prog.blocks,
		regs:   regs,
		vals:   regs[nslots:],
		slots:  regs[:nslots],
		gidx:   prog.gidx,
		rng:    rngInit,
	}
	copy(m.vals[prog.nvals:], prog.pool)
	m.gl = make([]*globalState, 0, len(mod.Globals))
	for _, g := range mod.Globals {
		st := &globalState{g: g}
		switch g.Kind {
		case ir.GArray:
			st.array = wordSlabs.get(g.Len)
			if g.Len > 0 && g.Len&(g.Len-1) == 0 {
				st.amask = uint64(g.Len - 1)
			}
		case ir.GMap:
			st.nmap = newNICMapState(max(g.Len/BucketSlots, 1))
		case ir.GVec:
			st.vec = &vecState{vals: wordSlabs.get(g.Len), valid: flagSlabs.get(g.Len)}
		}
		m.gl = append(m.gl, st)
	}
	return m, nil
}

// Release hands m's arrays, vectors and map tables back to the
// state slabs — zeroed, or generation-bumped in O(1) — for whichever
// machine is built next, of any program. It leaves m unusable: RunPacket
// and the state accessors panic, so a stale reference can never read
// another job's state. Counters m handed out stay with the caller,
// and a second Release is a no-op.
func (m *Machine) Release() {
	for _, g := range m.gl {
		switch {
		case g.array != nil:
			wordSlabs.put(g.array)
		case g.nmap != nil:
			g.nmap.release()
		case g.vec != nil:
			wordSlabs.put(g.vec.vals)
			flagSlabs.put(g.vec.valid)
		}
	}
	m.gl, m.regs, m.vals, m.slots = nil, nil, nil, nil
}

// SetHooks installs execution hooks (may be called between packets).
func (m *Machine) SetHooks(h Hooks) { m.hooks = h }

// EnableCounters attaches zeroed native profiling counters sized for
// this machine's module, replacing any attached before. Counters and
// Hooks are independent; either or both may be active.
func (m *Machine) EnableCounters() {
	nb := len(m.blocks)
	m.ctr = &Counters{
		Block:   make([]uint64, nb),
		State:   make([]uint64, len(m.gl)*nb),
		API:     make([]uint64, len(m.gl)*nb),
		NBlocks: nb,
		entries: make([]uint64, len(m.prog.lowering().chains)),
	}
}

// Counters returns the counters EnableCounters attached (nil if none),
// exact as of the last packet. The reference loop counts every event;
// the step engine counts only how often each chain ran whole, and
// reading adds those runs to the blocks and global accesses of their
// chains. Machine.call counts API probes as they happen.
func (m *Machine) Counters() *Counters {
	c := m.ctr
	if c == nil {
		return nil
	}
	l := m.prog.lowering()
	for ci, n := range c.entries {
		if n == 0 {
			continue
		}
		ch := &l.chains[ci]
		for _, b := range l.tab[ch.lo:ch.mid] {
			c.Block[b] += n
		}
		for _, k := range l.tab[ch.mid:ch.hi] {
			c.State[k] += n
		}
		c.entries[ci] = 0
	}
	return c
}

func maskOf(ty ir.Type) uint64 {
	switch ty {
	case ir.Bool:
		return 1
	case ir.U8:
		return 0xff
	case ir.U16:
		return 0xffff
	case ir.U32:
		return 0xffffffff
	default:
		return ^uint64(0)
	}
}

// compileArg resolves an operand to a value-array index: instruction
// results keep their IR id; constants are interned into the pool, whose
// entries live at indices >= nvals.
func (c *compiler) compileArg(v ir.Value) int32 {
	if v.Kind == ir.VInstr {
		return int32(v.ID)
	}
	cv := uint64(v.Const) & maskOf(v.Ty)
	if idx, ok := c.pool[cv]; ok {
		return idx
	}
	idx := int32(c.p.nvals + len(c.p.pool))
	c.p.pool = append(c.p.pool, cv)
	c.pool[cv] = idx
	return idx
}

// xops maps an IR opcode to its dispatch code; compileInstr specializes
// global accesses by the global's kind and calls by their API.
var xops = [...]xop{
	ir.OpAdd: xAdd, ir.OpSub: xSub, ir.OpMul: xMul, ir.OpUDiv: xUDiv, ir.OpURem: xURem,
	ir.OpAnd: xAnd, ir.OpOr: xOr, ir.OpXor: xXor, ir.OpShl: xShl, ir.OpLShr: xLShr,
	ir.OpNot: xNot, ir.OpZExt: xMask, ir.OpTrunc: xMask, ir.OpICmp: xICmp,
	ir.OpLLoad: xLLoad, ir.OpLStore: xLStore,
	ir.OpBr: xBr, ir.OpCondBr: xCondBr, ir.OpRet: xRet,
}

// compileInstr compiles one instruction of a verified module.
func (c *compiler) compileInstr(in *ir.Instr) cInstr {
	ci := cInstr{
		op: xops[in.Op], pred: in.Pred, mask: maskOf(in.Ty), id: int32(in.ID),
		slot: int32(in.Slot), t: int32(in.True), f: int32(in.False),
		gidx: -1, nargs: uint8(len(in.Args)),
	}
	for k, a := range in.Args {
		if k == 0 {
			ci.a0 = c.compileArg(a)
		} else {
			ci.a1 = c.compileArg(a)
		}
	}
	if in.Op.IsStatefulMem() || in.Op == ir.OpCall && in.Global != "" {
		ci.gidx = int32(c.p.gidx[in.Global])
	}
	switch in.Op {
	case ir.OpGLoad, ir.OpGStore:
		// Power-of-two arrays index with a mask instead of a modulo —
		// identical result for unsigned indices, no hardware divide.
		g := c.mod.Globals[ci.gidx]
		load := in.Op == ir.OpGLoad
		switch {
		case g.Kind == ir.GScalar:
			ci.op = pick(load, xGLoadS, xGStoreS)
		case g.Len&(g.Len-1) == 0:
			ci.op = pick(load, xGLoadAP, xGStoreAP)
		default:
			ci.op = pick(load, xGLoadA, xGStoreA)
		}
	case ir.OpCall:
		ci.api, _ = ir.LookupAPI(in.Callee)
		ci.op = apiOps[ci.api]
	}
	return ci
}

// pick returns load's op for a load and store's for a store.
func pick(load bool, loadOp, storeOp xop) xop {
	if load {
		return loadOp
	}
	return storeOp
}

// RunPacket executes the handler for one packet. The packet's disposition
// fields are updated in place.
//
// A machine with hooks attached (they may change between packets) runs
// the reference loop, the only code that fires them; otherwise the step
// engine runs. Every other observable — Steps, fuel, counters, packet and
// state mutations — is identical between the two.
func (m *Machine) RunPacket(p *traffic.Packet) error {
	if m.regs == nil {
		panic("interp: RunPacket on a released Machine")
	}
	if h := &m.hooks; h.OnBlock != nil || h.OnState != nil || h.OnAPI != nil {
		return m.runReference(p)
	}
	return m.runSteps(m.prog.lowering(), p)
}

// runReference is the switch-dispatch loop over the flat form. It is the
// semantic definition of execution: the step engine is tested
// (differentially and under fuzzing) to match it bit for bit.
func (m *Machine) runReference(p *traffic.Packet) error {
	p.Reset()
	m.pkt = p
	m.fuel = m.cfg.Fuel
	return m.reference(0)
}

// reference runs the current packet on from the start of block bi with
// m.fuel left, one instruction at a time. The step engine enters it at a
// chain's head when the chain does not fit the fuel left.
func (m *Machine) reference(bi int) error {
	vals, p := m.vals, m.pkt
	for {
		if m.ctr != nil {
			m.ctr.Block[bi]++
		}
		if m.hooks.OnBlock != nil {
			m.hooks.OnBlock(bi)
		}
		cb := &m.blocks[bi]
		// Fuel and Steps are charged per block, by source IR instruction
		// count (cb.size — fusion does not change the cost model). Blocks
		// always retire in full — the terminator (Ret/Br/CondBr) is the
		// last instruction — so successful runs count exactly the
		// instructions executed; a run that would exhaust fuel mid-block
		// aborts at block entry.
		m.fuel -= cb.size
		if m.fuel < 0 {
			return ErrFuel
		}
		m.Steps += uint64(cb.size)
		next := -1
		for i := range cb.instrs {
			in := &cb.instrs[i]
			switch in.op {
			case xAdd:
				vals[in.id] = (vals[in.a0] + vals[in.a1]) & in.mask
			case xSub:
				vals[in.id] = (vals[in.a0] - vals[in.a1]) & in.mask
			case xMul:
				vals[in.id] = (vals[in.a0] * vals[in.a1]) & in.mask
			case xUDiv:
				d := vals[in.a1]
				if d == 0 {
					vals[in.id] = in.mask // all-ones, like NIC firmware
				} else {
					vals[in.id] = (vals[in.a0] / d) & in.mask
				}
			case xURem:
				d := vals[in.a1]
				if d == 0 {
					vals[in.id] = 0
				} else {
					vals[in.id] = (vals[in.a0] % d) & in.mask
				}
			case xAnd:
				vals[in.id] = vals[in.a0] & vals[in.a1] & in.mask
			case xOr:
				vals[in.id] = (vals[in.a0] | vals[in.a1]) & in.mask
			case xXor:
				vals[in.id] = (vals[in.a0] ^ vals[in.a1]) & in.mask
			case xShl:
				sh := vals[in.a1] & 63
				vals[in.id] = (vals[in.a0] << sh) & in.mask
			case xLShr:
				sh := vals[in.a1] & 63
				vals[in.id] = (vals[in.a0] >> sh) & in.mask
			case xNot:
				vals[in.id] = ^vals[in.a0] & in.mask
			case xMask:
				vals[in.id] = vals[in.a0] & in.mask
			case xICmp:
				if cmpPred(in.pred, vals[in.a0], vals[in.a1]) {
					vals[in.id] = 1
				} else {
					vals[in.id] = 0
				}
			case xCmpBr:
				if cmpPred(in.pred, vals[in.a0], vals[in.a1]) {
					vals[in.id] = 1
					next = int(in.t)
				} else {
					vals[in.id] = 0
					next = int(in.f)
				}
			case xLLoad:
				vals[in.id] = m.slots[in.slot]
			case xLStore:
				m.slots[in.slot] = vals[in.a0] & in.mask
			case xGLoadS:
				vals[in.id] = m.gl[in.gidx].scalar
				if m.ctr != nil {
					m.ctr.State[int(in.gidx)*m.ctr.NBlocks+bi]++
				}
				if m.hooks.OnState != nil {
					m.hooks.OnState(int(in.gidx), false, 0, bi)
				}
			case xGLoadAP:
				g := m.gl[in.gidx]
				idx := vals[in.a0] & g.amask
				vals[in.id] = g.array[idx]
				if m.ctr != nil {
					m.ctr.State[int(in.gidx)*m.ctr.NBlocks+bi]++
				}
				if m.hooks.OnState != nil {
					m.hooks.OnState(int(in.gidx), false, idx, bi)
				}
			case xGLoadA:
				g := m.gl[in.gidx]
				idx := vals[in.a0] % uint64(len(g.array))
				vals[in.id] = g.array[idx]
				if m.ctr != nil {
					m.ctr.State[int(in.gidx)*m.ctr.NBlocks+bi]++
				}
				if m.hooks.OnState != nil {
					m.hooks.OnState(int(in.gidx), false, idx, bi)
				}
			case xGStoreS:
				m.gl[in.gidx].scalar = vals[in.a0] & in.mask
				if m.ctr != nil {
					m.ctr.State[int(in.gidx)*m.ctr.NBlocks+bi]++
				}
				if m.hooks.OnState != nil {
					m.hooks.OnState(int(in.gidx), true, 0, bi)
				}
			case xGStoreAP:
				g := m.gl[in.gidx]
				idx := vals[in.a1] & g.amask
				g.array[idx] = vals[in.a0] & in.mask
				if m.ctr != nil {
					m.ctr.State[int(in.gidx)*m.ctr.NBlocks+bi]++
				}
				if m.hooks.OnState != nil {
					m.hooks.OnState(int(in.gidx), true, idx, bi)
				}
			case xGStoreA:
				g := m.gl[in.gidx]
				idx := vals[in.a1] % uint64(len(g.array))
				g.array[idx] = vals[in.a0] & in.mask
				if m.ctr != nil {
					m.ctr.State[int(in.gidx)*m.ctr.NBlocks+bi]++
				}
				if m.hooks.OnState != nil {
					m.hooks.OnState(int(in.gidx), true, idx, bi)
				}
			case xCall:
				m.call(in, bi)
			case xCallPayload:
				if i := vals[in.a0]; i < uint64(len(p.Payload)) {
					vals[in.id] = uint64(p.Payload[i])
				} else {
					vals[in.id] = 0
				}
				if m.hooks.OnAPI != nil {
					m.hooks.OnAPI(in.api, int(in.gidx), 0, 0, bi)
				}
			case xCallSetPayload:
				if i := vals[in.a0]; i < uint64(len(p.Payload)) {
					p.Payload[i] = byte(vals[in.a1])
				}
				if m.hooks.OnAPI != nil {
					m.hooks.OnAPI(in.api, int(in.gidx), 0, 0, bi)
				}
			case xCallHash32:
				vals[in.id] = uint64(Hash32(vals[in.a0]))
				if m.hooks.OnAPI != nil {
					m.hooks.OnAPI(in.api, int(in.gidx), 0, 0, bi)
				}
			case xPktGet:
				vals[in.id] = pktGet(p, int32(in.api))
				if m.hooks.OnAPI != nil {
					m.hooks.OnAPI(in.api, int(in.gidx), 0, 0, bi)
				}
			case xPktSet:
				pktSet(p, int32(in.api), vals[in.a0])
				if m.hooks.OnAPI != nil {
					probes := 0
					if in.api == ir.APIPktCsumUpdate {
						probes = int(p.IPLen) // bytes checksummed
					}
					m.hooks.OnAPI(in.api, int(in.gidx), probes, 0, bi)
				}
			case xBr:
				next = int(in.t)
			case xCondBr:
				if vals[in.a0] != 0 {
					next = int(in.t)
				} else {
					next = int(in.f)
				}
			case xRet:
				return nil
			}
		}
		if next < 0 { // ir.Verify ends every block in a terminator
			panic(fmt.Sprintf("interp: block %d fell through", bi))
		}
		bi = next
	}
}

// cmpPred evaluates an unsigned comparison predicate.
func cmpPred(pred ir.Pred, a, b uint64) bool {
	switch pred {
	case ir.PredEQ:
		return a == b
	case ir.PredNE:
		return a != b
	case ir.PredULT:
		return a < b
	case ir.PredULE:
		return a <= b
	case ir.PredUGT:
		return a > b
	case ir.PredUGE:
		return a >= b
	}
	return false
}

// arg reads one compiled operand; kept as a helper for the API
// implementations (the core opcode loop indexes m.vals directly).
func (m *Machine) arg(i int32) uint64 { return m.vals[i] }

// emitAPI records one framework API call against counters and hooks.
// Counters only accumulate calls that carry probe work against a global
// (gidx >= 0), mirroring the host profiler's OnAPI filter.
func (m *Machine) emitAPI(in *cInstr, probes int, addr uint64, block int) {
	if m.ctr != nil && probes > 0 && in.gidx >= 0 {
		m.ctr.API[int(in.gidx)*m.ctr.NBlocks+block] += uint64(probes)
	}
	if m.hooks.OnAPI != nil {
		m.hooks.OnAPI(in.api, int(in.gidx), probes, addr, block)
	}
}
