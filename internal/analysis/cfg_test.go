package analysis_test

import (
	"reflect"
	"testing"

	"clara/internal/analysis"
	"clara/internal/click"
	"clara/internal/ir"
	"clara/internal/lang"
)

// TestCFGLibraryInvariants builds the CFG of every click element's every
// function and checks the structural invariants all analyses rely on.
func TestCFGLibraryInvariants(t *testing.T) {
	for _, name := range click.Table2Order {
		name := name
		t.Run(name, func(t *testing.T) {
			m := click.Get(name).MustModule()
			for _, f := range m.Funcs {
				c := analysis.BuildCFG(f)
				if !c.Reachable(0) {
					t.Fatalf("%s: entry unreachable", f.Name)
				}
				if len(c.RPO) == 0 || c.RPO[0] != 0 {
					t.Fatalf("%s: RPO must start at the entry, got %v", f.Name, c.RPO)
				}
				// Succ/pred symmetry.
				for b, ss := range c.Succs {
					for _, s := range ss {
						found := false
						for _, p := range c.Preds[s] {
							if p == b {
								found = true
							}
						}
						if !found {
							t.Fatalf("%s: edge b%d->b%d missing from preds", f.Name, b, s)
						}
					}
				}
				// Dominator sanity: the entry dominates every reachable
				// block; every non-entry reachable block has a reachable
				// idom that dominates it.
				for _, b := range c.RPO {
					if !c.Dominates(0, b) {
						t.Errorf("%s: entry does not dominate b%d", f.Name, b)
					}
					if b == 0 {
						if c.Idom(0) != -1 {
							t.Errorf("%s: entry idom = %d, want -1", f.Name, c.Idom(0))
						}
						continue
					}
					id := c.Idom(b)
					if id < 0 || !c.Reachable(id) || !c.Dominates(id, b) {
						t.Errorf("%s: bad idom %d for b%d", f.Name, id, b)
					}
				}
				// Loop sanity: the header dominates every loop block, back
				// edges come from inside, exits leave the loop, and every
				// loop entered from outside goes through the header.
				for _, l := range c.NaturalLoops() {
					for _, b := range l.Blocks {
						if !c.Dominates(l.Head, b) {
							t.Errorf("%s: loop head b%d does not dominate member b%d", f.Name, l.Head, b)
						}
					}
					for _, u := range l.Backs {
						if !l.Contains(u) {
							t.Errorf("%s: back-edge source b%d outside loop", f.Name, u)
						}
					}
					for _, e := range l.Exits {
						if !l.Contains(e.From) || l.Contains(e.To) {
							t.Errorf("%s: bad exit edge %v", f.Name, e)
						}
					}
					if len(preheaders(c, l)) == 0 {
						t.Errorf("%s: loop at b%d has no entry from outside", f.Name, l.Head)
					}
				}
			}
		})
	}
}

// TestLibraryLoopFacts pins the loop structure and inferred trip bounds of
// every Table 2 element's handler: which elements loop at all, and that
// every loop in the stock library is provably bounded (the lint-clean
// contract depends on exactly this).
func TestLibraryLoopFacts(t *testing.T) {
	// maxes is the multiset of inferred per-loop iteration bounds.
	expect := map[string][]uint64{
		"anonipaddr":   {},
		"tcpack":       {},
		"udpipencap":   {},
		"forcetcp":     {},
		"tcpresp":      {},
		"tcpgen":       {},
		"aggcounter":   {},
		"timefilter":   {},
		"cmsketch":     {8, 8, 8, 8, 8, 8, 8, 8}, // 4 CRC rows x (byte loop + bit loop)
		"wepdecap":     {16, 16, 64, 64, 8},
		"iplookup":     {32}, // bit-serial trie walk over a /32
		"iprewriter":   {},
		"ipclassifier": {},
		"dnsproxy":     {52}, // QNAME hash: payload capped at 64, starting at offset 12
		"mazunat":      {},
		"udpcount":     {},
		"webgen":       {},
	}
	for _, name := range click.Table2Order {
		want, ok := expect[name]
		if !ok {
			t.Fatalf("no expectation for %s", name)
		}
		c, ri := handlerRanges(click.Get(name).MustModule())
		var got []uint64
		for _, l := range c.NaturalLoops() {
			tc := ri.InferTripCount(l)
			if !tc.HasFeasibleExit {
				t.Errorf("%s: loop at b%d has no feasible exit", name, l.Head)
				continue
			}
			if !tc.Bounded {
				t.Errorf("%s: loop at b%d not bounded", name, l.Head)
				continue
			}
			got = append(got, tc.Max)
		}
		if len(got) != len(want) {
			t.Errorf("%s: %d bounded loops %v, want %d %v", name, len(got), got, len(want), want)
			continue
		}
		used := make([]bool, len(want))
		for _, g := range got {
			matched := false
			for i, w := range want {
				if !used[i] && w == g {
					used[i] = true
					matched = true
					break
				}
			}
			if !matched {
				t.Errorf("%s: unexpected loop bound %d (got %v, want %v)", name, g, got, want)
			}
		}
	}
}

// preheaders returns the reachable predecessors entering l from outside.
func preheaders(c *analysis.CFG, l *analysis.Loop) []int {
	var out []int
	for _, p := range c.Preds[l.Head] {
		if !l.Contains(p) && c.Reachable(p) {
			out = append(out, p)
		}
	}
	return out
}

// handlerRanges returns the handler's CFG and interval fixpoint.
func handlerRanges(m *ir.Module) (*analysis.CFG, *analysis.RangeInfo) {
	cg := analysis.BuildCallGraph(m)
	node := cg.Node(ir.HandlerName)
	return cg.CFGs[node], analysis.ComputeRanges(cg)[node]
}

// TestCFGStructured checks the derived structures on a small known shape:
// a diamond followed by a while loop.
func TestCFGStructured(t *testing.T) {
	src := `
void handle() {
	u32 x = 0;
	if (pkt_ip_proto() == 6) { x = 1; } else { x = 2; }
	while (x < 10) { x = x + 1; }
	pkt_send(x);
}
`
	m, err := lang.Compile("structured", src)
	if err != nil {
		t.Fatal(err)
	}
	c, ri := handlerRanges(m)

	loops := c.NaturalLoops()
	if len(loops) != 1 {
		t.Fatalf("want 1 loop, got %d", len(loops))
	}
	l := loops[0]
	if len(l.Backs) != 1 || len(l.Exits) != 1 {
		t.Fatalf("loop shape: backs=%v exits=%v", l.Backs, l.Exits)
	}
	if pres := preheaders(c, l); len(pres) != 1 {
		t.Fatalf("want 1 preheader, got %v", pres)
	}
	// The diamond join dominates the loop; neither arm does.
	join := c.Idom(l.Head)
	arms := 0
	for _, b := range c.RPO {
		if b == 0 || b == join {
			continue
		}
		if c.Dominates(b, l.Head) {
			continue
		}
		if !l.Contains(b) && c.Dominates(0, b) && !c.Dominates(b, join) {
			arms++
		}
	}
	if arms < 2 {
		t.Errorf("expected two non-dominating diamond arms, found %d", arms)
	}

	tc := ri.InferTripCount(l)
	// x enters the loop as 1 or 2, so at most 10-1 iterations remain.
	if !tc.Bounded || tc.Max != 9 {
		t.Errorf("trip count = %+v, want bounded max 9", tc)
	}
}

// buildStraight hand-builds:
//
//	b0: s0 <- 1; s1 <- gload; cbr (s1load < 5) b1 b2
//	b1: s0 <- s1load2 ; br b2       (s0 overwritten before any read)
//	b2: ret s0load
func buildStraight() *ir.Func {
	b := ir.NewBuilder("handle", nil, ir.U32)
	s0, s1 := b.NewSlot(), b.NewSlot()
	entry := b.Current()
	b.LStore(s0, ir.ConstVal(1, ir.U32))
	g := b.GLoad("ctr", ir.U32, nil)
	b.LStore(s1, g)
	v := b.LLoad(s1, ir.U32)
	cond := b.ICmp(ir.PredULT, v, ir.ConstVal(5, ir.U32))
	then := b.NewBlock("then")
	exit := b.NewBlock("exit")
	b.SetBlock(entry)
	b.CondBr(cond, then, exit)
	b.SetBlock(then)
	v2 := b.LLoad(s1, ir.U32)
	b.LStore(s0, v2)
	b.Br(exit)
	b.SetBlock(exit)
	r := b.LLoad(s0, ir.U32)
	b.Ret(&r)
	return b.F
}

// TestLivenessStraight: over the slot SSA, a store is live exactly when
// its version reaches a load.
func TestLivenessStraight(t *testing.T) {
	f := buildStraight()
	v, v2, r := 1, 3, 4 // the s1 loads in b0 and b1, the s0 load in b2
	// Both stores to s0 reach the b2 load, through the phi at b2.
	for _, st := range [][2]int{{0, 0}, {1, 1}} {
		if got := analysis.StoreReaches(f, st[0], st[1]); !reflect.DeepEqual(got, []int{r}) {
			t.Errorf("s0 store at b%d:%d reaches loads %v, want [%d]", st[0], st[1], got, r)
		}
	}
	// The s1 store reaches the reads in b0 and b1, but nothing after b1.
	if got := analysis.StoreReaches(f, 0, 2); !reflect.DeepEqual(got, []int{v, v2}) {
		t.Errorf("s1 store reaches loads %v, want [%d %d]", got, v, v2)
	}
}

func TestReachingDefsStraight(t *testing.T) {
	f := buildStraight()
	// At the b2 load of s0, both the entry store and the b1 store reach.
	stores, uninit := analysis.LoadDefs(f, 4) // the s0 load in b2
	if want := [][2]int{{0, 0}, {1, 1}}; !reflect.DeepEqual(stores, want) {
		t.Fatalf("stores reaching the slot0 load at b2 = %v, want %v", stores, want)
	}
	if uninit {
		t.Error("slot0 is initialized on every path; the undefined entry value reaches")
	}
}

func TestReachingDefsUninit(t *testing.T) {
	// b0: cbr (param0 < 5) b1 b2 ; b1: s0 <- 7 ; b2: ret s0load
	// s0 is uninitialized on the fallthrough path.
	b := ir.NewBuilder("handle", []ir.Param{{Name: "p", Ty: ir.U32}}, ir.U32)
	s0 := b.NewSlot()
	entry := b.Current()
	cond := b.ICmp(ir.PredULT, ir.ParamVal(0, ir.U32), ir.ConstVal(5, ir.U32))
	then := b.NewBlock("then")
	exit := b.NewBlock("exit")
	b.SetBlock(entry)
	b.CondBr(cond, then, exit)
	b.SetBlock(then)
	b.LStore(s0, ir.ConstVal(7, ir.U32))
	b.Br(exit)
	b.SetBlock(exit)
	r := b.LLoad(s0, ir.U32)
	b.Ret(&r)

	stores, uninit := analysis.LoadDefs(b.F, r.ID)
	if !uninit || len(stores) != 1 {
		t.Errorf("want both the undefined entry value and the b1 store to reach, got stores %v uninit %v", stores, uninit)
	}
}

// TestRangeRefinement checks the branch-refined interval propagation on
// the clamp idiom the library leans on (wepdecap's limit cap).
func TestRangeRefinement(t *testing.T) {
	src := `
void handle() {
	u32 limit = u32(pkt_payload_len());
	if (limit > 64) { limit = 64; }
	u32 i = 0;
	while (i < limit) { i = i + 1; }
	pkt_send(i);
}
`
	m, err := lang.Compile("clamp", src)
	if err != nil {
		t.Fatal(err)
	}
	c, ri := handlerRanges(m)
	loops := c.NaturalLoops()
	if len(loops) != 1 {
		t.Fatalf("want 1 loop, got %d", len(loops))
	}
	tc := ri.InferTripCount(loops[0])
	if !tc.Bounded || tc.Max != 64 {
		t.Errorf("clamped loop trip = %+v, want bounded max 64", tc)
	}
}

// TestRangeInfeasibleExit: a constant-true loop condition yields no
// feasible exit.
func TestRangeInfeasibleExit(t *testing.T) {
	src := `
void handle() {
	u32 i = 0;
	while (true) { i = i + 1; }
}
`
	m, err := lang.Compile("spin", src)
	if err != nil {
		t.Fatal(err)
	}
	c, ri := handlerRanges(m)
	loops := c.NaturalLoops()
	if len(loops) != 1 {
		t.Fatalf("want 1 loop, got %d", len(loops))
	}
	tc := ri.InferTripCount(loops[0])
	if tc.HasFeasibleExit {
		t.Errorf("while(true) reported a feasible exit: %+v", tc)
	}
}
