// Package synth generates random-but-representative NFC programs. It plays
// the role of the paper's customized YarpGen (§3.2 "Data synthesis"): the
// generator is guided by the statistical properties of a target program
// corpus (our Click-style element library), emits packet-handling programs
// against the NF framework API, and only uses operations with SmartNIC
// support — producing the (host IR, NIC assembly) training pairs that the
// instruction-prediction model learns from.
//
// A deliberately unguided "baseline" mode ignores the corpus profile; the
// Table 1 experiment contrasts the two.
package synth

import (
	"fmt"
	"math/rand"
	"strings"

	"clara/internal/ir"
)

// Profile captures the statistical properties of a program corpus that
// guide generation: the mix of compute operators, the branchiness and
// loopiness of the CFG, and how often stateful structures and framework
// APIs appear.
type Profile struct {
	// OpWeights is the relative frequency of each binary operator.
	OpWeights map[string]float64
	// BranchPerInstr is CFG branchiness: conditional branches per
	// instruction.
	BranchPerInstr float64
	// LoopFrac is the fraction of blocks participating in loops.
	LoopFrac float64
	// StatePerInstr is stateful accesses (incl. map API) per instruction.
	StatePerInstr float64
	// APIPerInstr is packet-API calls per instruction.
	APIPerInstr float64
	// AvgHandlerInstrs is the average handler size in IR instructions.
	AvgHandlerInstrs float64
}

// opNames are the NFC binary operators the generator may emit (all have
// SmartNIC support).
var opNames = []string{"+", "-", "*", "&", "|", "^", "<<", ">>", "/"}

var irOpToSrc = map[string]string{
	"add": "+", "sub": "-", "mul": "*", "and": "&", "or": "|",
	"xor": "^", "shl": "<<", "lshr": ">>", "udiv": "/", "urem": "/",
}

// ProfileFromModules measures a corpus of lowered elements.
func ProfileFromModules(mods []*ir.Module) Profile {
	p := Profile{OpWeights: map[string]float64{}}
	var instrs, branches, state, api, loopBlocks, blocks float64
	for _, m := range mods {
		f := m.Handler()
		if f == nil {
			continue
		}
		lb := ir.LoopBlocks(f)
		for bi, b := range f.Blocks {
			blocks++
			if lb[bi] {
				loopBlocks++
			}
			for _, in := range b.Instrs {
				instrs++
				switch {
				case in.Op == ir.OpCondBr:
					branches++
				case in.Op.IsStatefulMem():
					state++
				case in.Op == ir.OpCall:
					if strings.HasPrefix(in.Callee, "map_") {
						state++
					} else {
						api++
					}
				case in.Op.IsCompute():
					if src, ok := irOpToSrc[in.Op.String()]; ok {
						p.OpWeights[src]++
					}
				}
			}
		}
	}
	var totalOps float64
	for _, w := range p.OpWeights {
		totalOps += w
	}
	if totalOps > 0 {
		for k := range p.OpWeights {
			p.OpWeights[k] /= totalOps
		}
	}
	if instrs > 0 {
		p.BranchPerInstr = branches / instrs
		p.StatePerInstr = state / instrs
		p.APIPerInstr = api / instrs
	}
	if blocks > 0 {
		p.LoopFrac = loopBlocks / blocks
	}
	if n := float64(len(mods)); n > 0 {
		p.AvgHandlerInstrs = instrs / n
	}
	return p
}

// UniformProfile is the unguided baseline synthesizer profile (Table 1's
// comparison point): every operator equally likely, corpus-independent
// structural rates.
func UniformProfile() Profile {
	ow := map[string]float64{}
	for _, op := range opNames {
		ow[op] = 1 / float64(len(opNames))
	}
	return Profile{
		OpWeights:        ow,
		BranchPerInstr:   0.02,
		LoopFrac:         0.5,
		StatePerInstr:    0.02,
		APIPerInstr:      0.02,
		AvgHandlerInstrs: 120,
	}
}

// Config controls generation.
type Config struct {
	Profile Profile
	// StateBias multiplies the profile's stateful-access rate — the
	// scale-out training sweep uses it to span arithmetic intensities.
	StateBias float64
	// ComputeBias multiplies straight-line compute block lengths.
	ComputeBias float64
	Seed        int64
}

// sizeJitter scales program sizes in [1−j, 1+j].
const sizeJitter = 0.5

func (c Config) norm() Config {
	if c.StateBias == 0 {
		c.StateBias = 1
	}
	if c.ComputeBias == 0 {
		c.ComputeBias = 1
	}
	return c
}

// generator emits one program.
type generator struct {
	cfg  Config
	rng  *rand.Rand
	b    strings.Builder
	vars []genVar // declared locals in scope
	n    int      // emitted statement budget tracker

	scalars  []string
	scalarTy []string
	arrays   []arrayVar
	maps     []string

	indent int
	vid    int
}

type genVar struct {
	name string
	ty   string
}

type arrayVar struct {
	name string
	size int
}

var pktGetters = []struct {
	name string
	ty   string
}{
	{"pkt_ip_src", "u32"}, {"pkt_ip_dst", "u32"}, {"pkt_ip_ttl", "u8"},
	{"pkt_ip_len", "u16"}, {"pkt_tcp_sport", "u16"}, {"pkt_tcp_dport", "u16"},
	{"pkt_tcp_seq", "u32"}, {"pkt_tcp_ack", "u32"}, {"pkt_tcp_flags", "u8"},
	{"pkt_len", "u16"}, {"pkt_ip_proto", "u8"},
	{"pkt_payload_len", "u16"}, {"pkt_time", "u64"}, {"pkt_ip_hl", "u8"},
	{"pkt_tcp_off", "u8"}, {"rand32", "u32"},
}

var pktSetters = []struct {
	name string
	ty   string
}{
	{"pkt_set_ip_src", "u32"}, {"pkt_set_ip_dst", "u32"}, {"pkt_set_ip_ttl", "u8"},
	{"pkt_set_tcp_sport", "u16"}, {"pkt_set_tcp_dport", "u16"},
	{"pkt_set_tcp_seq", "u32"}, {"pkt_set_tcp_ack", "u32"},
}

// Generate produces one compilable NFC element source.
func Generate(cfg Config) string {
	cfg = cfg.norm()
	g := &generator{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
	return g.program()
}

// GenerateModule generates and lowers one element, panicking on internal
// generator bugs (generated programs are valid by construction).
func GenerateModule(cfg Config, compile func(name, src string) (*ir.Module, error)) (*ir.Module, string, error) {
	src := Generate(cfg)
	name := fmt.Sprintf("synth_%d", cfg.Seed)
	m, err := compile(name, src)
	if err != nil {
		return nil, src, fmt.Errorf("synth: generated invalid program: %w", err)
	}
	return m, src, nil
}

func (g *generator) w(format string, args ...any) {
	for i := 0; i < g.indent; i++ {
		g.b.WriteByte('\t')
	}
	fmt.Fprintf(&g.b, format, args...)
	g.b.WriteByte('\n')
}

func (g *generator) fresh(prefix string) string {
	g.vid++
	return fmt.Sprintf("%s%d", prefix, g.vid)
}

func (g *generator) pickOp() string {
	p := g.cfg.Profile
	r := g.rng.Float64()
	acc := 0.0
	for _, op := range opNames {
		acc += p.OpWeights[op]
		if r < acc {
			return op
		}
	}
	return "+"
}

// clampP bounds a statement-kind probability so that the cumulative
// selection ranges stay under 1 and every statement kind remains reachable
// regardless of the measured corpus profile.
func clampP(p, max float64) float64 {
	if p > max {
		return max
	}
	return p
}

func (g *generator) pickType() string {
	// Weight toward u32, the dominant packet-field width.
	switch g.rng.Intn(6) {
	case 0:
		return "u8"
	case 1:
		return "u16"
	case 2:
		return "u64"
	default:
		return "u32"
	}
}

// expr emits an expression of the given type with bounded depth.
func (g *generator) expr(ty string, depth int) string {
	if depth <= 0 || g.rng.Float64() < 0.3 {
		return g.atom(ty)
	}
	op := g.pickOp()
	l := g.expr(ty, depth-1)
	r := g.atom(ty)
	switch op {
	case "<<", ">>":
		return fmt.Sprintf("(%s %s %d)", l, op, 1+g.rng.Intn(7))
	case "/":
		// Constant divisors only; power-of-two vs general divides (and
		// remainders) exercise different compiler strength reductions.
		if g.rng.Intn(3) == 0 {
			return fmt.Sprintf("(%s %% %d)", l, 2+g.rng.Intn(14))
		}
		return fmt.Sprintf("(%s / %d)", l, 2+g.rng.Intn(14))
	default:
		return fmt.Sprintf("(%s %s %s)", l, op, r)
	}
}

// atom emits a leaf expression of the given type. The mix matters: the
// vendor compiler treats variable operands, small immediates and large
// immediates differently, so the training corpus must exercise all three.
func (g *generator) atom(ty string) string {
	apiP := g.cfg.Profile.APIPerInstr * 4
	if apiP > 0.22 {
		apiP = 0.22
	}
	roll := g.rng.Float64()
	// In-scope variable of the right type (real elements bind fields to
	// locals and reuse them; variable-dense atoms keep the lload/call mix
	// close to the corpus).
	if roll < 0.62 {
		var same []genVar
		for _, v := range g.vars {
			if v.ty == ty {
				same = append(same, v)
			}
		}
		if len(same) > 0 {
			return same[g.rng.Intn(len(same))].name
		}
	}
	// Packet getter (cast if needed).
	if roll < 0.62+apiP {
		gt := pktGetters[g.rng.Intn(len(pktGetters))]
		if gt.ty == ty {
			return gt.name + "()"
		}
		return fmt.Sprintf("%s(%s())", ty, gt.name)
	}
	// Literal: mix of small (foldable) and large (IMMED-requiring).
	if g.rng.Intn(2) == 0 {
		return fmt.Sprintf("%d", g.rng.Intn(250)+1)
	}
	return fmt.Sprintf("0x%x", 0x100+g.rng.Intn(1<<24))
}

// simpleCond emits one comparison.
func (g *generator) simpleCond() string {
	ty := g.pickType()
	ops := []string{"==", "!=", "<", "<=", ">", ">="}
	switch g.rng.Intn(4) {
	case 0:
		// Flag-mask test, the forcetcp idiom: (x & M) == M / != 0.
		m := []int{1, 2, 3, 4, 6, 0x10, 0x12}[g.rng.Intn(7)]
		rhs := "0"
		if g.rng.Intn(2) == 0 {
			rhs = fmt.Sprintf("%d", m)
		}
		op := "!="
		if rhs != "0" {
			op = "=="
		}
		return fmt.Sprintf("(%s & %d) %s %s", g.atom("u8"), m, op, rhs)
	case 1:
		// Threshold against a constant.
		return fmt.Sprintf("%s %s %d", g.expr(ty, 1), ops[g.rng.Intn(len(ops))], g.rng.Intn(250))
	default:
		return fmt.Sprintf("%s %s %s", g.expr(ty, 1), ops[g.rng.Intn(len(ops))], g.atom(ty))
	}
}

func (g *generator) condition() string {
	c := g.simpleCond()
	switch g.rng.Intn(5) {
	case 0:
		// Compound condition (port lists, the ipclassifier idiom).
		return fmt.Sprintf("%s || %s", c, g.simpleCond())
	case 1:
		// Range test.
		v := g.atom("u16")
		lo := 1024 + g.rng.Intn(20000)
		return fmt.Sprintf("%s >= %d && %s <= %d", v, lo, v, lo+g.rng.Intn(200))
	default:
		return c
	}
}

// stmt emits one statement; budget counts down toward zero.
func (g *generator) stmt(budget *int, depth int) {
	if *budget <= 0 {
		return
	}
	*budget--
	p := g.cfg.Profile
	r := g.rng.Float64()

	stateP := clampP(p.StatePerInstr*6*g.cfg.StateBias, 0.40)
	branchP := clampP(p.BranchPerInstr*8, 0.22)
	loopP := clampP(p.LoopFrac*0.12, 0.10)
	setterP := clampP(p.APIPerInstr*2, 0.10)

	switch {
	case r < stateP && len(g.maps) > 0 && g.rng.Intn(2) == 0:
		m := g.maps[g.rng.Intn(len(g.maps))]
		key := g.fresh("k")
		g.w("u64 %s = (u64(%s) << 32) | u64(%s);", key, g.atom("u32"), g.atom("u32"))
		g.vars = append(g.vars, genVar{key, "u64"})
		switch g.rng.Intn(3) {
		case 0:
			v := g.fresh("v")
			g.w("u64 %s = map_find(%s, %s);", v, m, key)
			g.vars = append(g.vars, genVar{v, "u64"})
		case 1:
			g.w("map_insert(%s, %s, %s);", m, key, g.expr("u64", 1))
		default:
			g.w("if (map_contains(%s, %s)) { map_remove(%s, %s); }", m, key, m, key)
		}

	case r < stateP && len(g.arrays) > 0:
		a := g.arrays[g.rng.Intn(len(g.arrays))]
		idx := fmt.Sprintf("%s & %d", g.atom("u32"), a.size-1)
		if g.rng.Intn(2) == 0 {
			v := g.fresh("t")
			g.w("u32 %s = %s[%s];", v, a.name, idx)
			g.vars = append(g.vars, genVar{v, "u32"})
		} else {
			g.w("%s[%s] += %s;", a.name, idx, g.expr("u32", 1))
		}

	case r < stateP+0.04 && len(g.scalars) > 0:
		i := g.rng.Intn(len(g.scalars))
		g.w("%s += %s;", g.scalars[i], g.expr(g.scalarTy[i], 1))

	case r < stateP+0.04+branchP*0.3 && depth < 2:
		// Dispatch chain: if/else-if ladder over a field, each arm doing a
		// little work and usually disposing of the packet (the protocol /
		// port dispatch idiom of classifiers and counters).
		field := []string{"pkt_ip_proto()", "pkt_tcp_dport()", "pkt_udp_dport()"}[g.rng.Intn(3)]
		arms := 2 + g.rng.Intn(3)
		for a := 0; a < arms; a++ {
			kw := "if"
			if a > 0 {
				kw = "} else if"
			}
			g.w("%s (%s == %d) {", kw, field, []int{1, 6, 17, 53, 80, 443, 123}[g.rng.Intn(7)])
			g.indent++
			saved := len(g.vars)
			g.stmt(budget, depth+2)
			if g.rng.Intn(2) == 0 {
				if g.rng.Intn(2) == 0 {
					g.w("pkt_drop();")
				} else {
					g.w("pkt_send(%d);", g.rng.Intn(4))
				}
				g.w("return;")
			}
			g.vars = g.vars[:saved]
			g.indent--
		}
		g.w("}")

	case r < stateP+0.04+branchP && depth < 3:
		g.w("if (%s) {", g.condition())
		g.indent++
		saved := len(g.vars)
		inner := 1 + g.rng.Intn(4)
		for i := 0; i < inner && *budget > 0; i++ {
			g.stmt(budget, depth+1)
		}
		g.vars = g.vars[:saved]
		g.indent--
		if g.rng.Intn(3) == 0 {
			g.w("} else {")
			g.indent++
			saved := len(g.vars)
			inner := 1 + g.rng.Intn(3)
			for i := 0; i < inner && *budget > 0; i++ {
				g.stmt(budget, depth+1)
			}
			g.vars = g.vars[:saved]
			g.indent--
		}
		g.w("}")

	case r < stateP+0.04+branchP+loopP && depth < 2:
		i := g.fresh("i")
		bound := []int{4, 8, 16, 32}[g.rng.Intn(4)]
		g.w("for (u32 %s = 0; %s < %d; %s += 1) {", i, i, bound, i)
		g.indent++
		saved := len(g.vars)
		g.vars = append(g.vars, genVar{i, "u32"})
		inner := 1 + g.rng.Intn(3)
		for k := 0; k < inner && *budget > 0; k++ {
			g.stmt(budget, depth+1)
		}
		g.vars = g.vars[:saved]
		g.indent--
		g.w("}")

	case r < stateP+0.04+branchP+loopP+setterP:
		st := pktSetters[g.rng.Intn(len(pktSetters))]
		g.w("%s(%s(%s));", st.name, st.ty, g.expr("u32", 1))

	case r < stateP+0.04+branchP+loopP+setterP+0.07:
		// Header-rewrite run: the dominant Click idiom — a straight block
		// of getter/setter calls with almost no core compute between them
		// (address swaps, encapsulation). Without these in the corpus the
		// model overpredicts compute for call-dense blocks.
		n := 2 + g.rng.Intn(5)
		for k := 0; k < n; k++ {
			st := pktSetters[g.rng.Intn(len(pktSetters))]
			gt := pktGetters[g.rng.Intn(len(pktGetters))]
			switch g.rng.Intn(3) {
			case 0: // pure field copy
				g.w("%s(%s(%s()));", st.name, st.ty, gt.name)
			case 1: // field with a small adjustment
				g.w("%s(%s(%s() + %d));", st.name, st.ty, gt.name, 1+g.rng.Intn(8))
			default: // masked/shifted field
				g.w("%s(%s((%s(%s()) >> %d) & 0x%x));", st.name, st.ty, st.ty,
					gt.name, g.rng.Intn(5), 0xf+g.rng.Intn(0xff0))
			}
		}
		if g.rng.Intn(2) == 0 {
			g.w("pkt_csum_update();")
		}

	case r < stateP+0.04+branchP+loopP+setterP+0.07+0.04:
		// Header-length arithmetic (the hdr_size idiom of Figure 4).
		v := g.fresh("hm")
		g.w("u16 %s = pkt_ip_len() - (u16(pkt_ip_hl()) << 2) - (u16(pkt_tcp_off()) << 2);", v)
		g.vars = append(g.vars, genVar{v, "u16"})

	case r < stateP+0.04+branchP+loopP+setterP+0.07+0.04+0.08:
		// Cover the rest of the framework surface so real elements'
		// instruction words all appear in the training vocabulary.
		switch g.rng.Intn(6) {
		case 0:
			g.w("pkt_csum_update();")
		case 1:
			v := g.fresh("pb")
			g.w("u8 %s = pkt_payload(%s & 63);", v, g.atom("u32"))
			g.vars = append(g.vars, genVar{v, "u8"})
		case 2:
			g.w("pkt_set_payload(%s & 63, u8(%s));", g.atom("u32"), g.expr("u32", 1))
		case 3:
			v := g.fresh("ts")
			g.w("u64 %s = pkt_time();", v)
			g.vars = append(g.vars, genVar{v, "u64"})
		case 4:
			v := g.fresh("h")
			g.w("u32 %s = hash32(u64(%s));", v, g.atom("u32"))
			g.vars = append(g.vars, genVar{v, "u32"})
		default:
			v := g.fresh("nv")
			g.w("u32 %s = ~%s;", v, g.atom("u32"))
			g.vars = append(g.vars, genVar{v, "u32"})
		}

	default:
		// Straight-line compute: declare-and-combine.
		ty := g.pickType()
		v := g.fresh("x")
		depthE := 1 + int(float64(g.rng.Intn(3))*g.cfg.ComputeBias)
		g.w("%s %s = %s;", ty, v, g.expr(ty, depthE))
		g.vars = append(g.vars, genVar{v, ty})
	}
}

func (g *generator) program() string {
	p := g.cfg.Profile

	// Stateful declarations scale with the profile's state rate.
	nScalars := g.rng.Intn(3)
	nArrays := 0
	nMaps := 0
	if p.StatePerInstr > 0.005 {
		nScalars = 1 + g.rng.Intn(4)
		nArrays = g.rng.Intn(3)
		nMaps = g.rng.Intn(3)
	}
	for i := 0; i < nScalars; i++ {
		name := g.fresh("g")
		ty := "u32"
		if g.rng.Intn(4) == 0 {
			ty = "u64"
		}
		g.scalars = append(g.scalars, name)
		g.scalarTy = append(g.scalarTy, ty)
		g.w("global %s %s;", ty, name)
	}
	for i := 0; i < nArrays; i++ {
		name := g.fresh("arr")
		size := []int{64, 256, 1024, 4096}[g.rng.Intn(4)]
		g.arrays = append(g.arrays, arrayVar{name, size})
		g.w("global u32 %s[%d];", name, size)
	}
	for i := 0; i < nMaps; i++ {
		name := g.fresh("m")
		size := []int{1024, 4096, 16384, 65536}[g.rng.Intn(4)]
		g.maps = append(g.maps, name)
		g.w("map<u64,u64> %s[%d];", name, size)
	}

	g.w("")
	g.w("void handle() {")
	g.indent++
	// Prologue: bind a handful of packet fields to locals — the universal
	// Click element idiom (Figure 4 reads header fields into temporaries
	// before the core logic).
	nBind := 2 + g.rng.Intn(4)
	for i := 0; i < nBind; i++ {
		gt := pktGetters[g.rng.Intn(len(pktGetters))]
		v := g.fresh("f")
		g.w("%s %s = %s();", gt.ty, v, gt.name)
		g.vars = append(g.vars, genVar{v, gt.ty})
	}
	jit := 1 + (g.rng.Float64()*2-1)*sizeJitter
	budget := int(p.AvgHandlerInstrs / 4 * jit)
	if budget < 4 {
		budget = 4
	}
	for budget > 0 {
		g.stmt(&budget, 0)
	}
	if g.rng.Intn(4) == 0 {
		g.w("pkt_drop();")
	} else {
		g.w("pkt_send(%d);", g.rng.Intn(4))
	}
	g.indent--
	g.w("}")
	return g.b.String()
}
