package core

import (
	"sort"

	"clara/internal/ir"
	"clara/internal/ml"
)

// This file implements memory access coalescing (§4.4): cluster stateful
// scalars by their per-block access vectors with k-means, pack each
// cluster contiguously, and fetch packs with single coalesced accesses.

// CoalesceConfig controls clustering.
type CoalesceConfig struct {
	Seed int64
}

const (
	// coalesceMaxK bounds the number of clusters tried.
	coalesceMaxK = 6
	// coalesceCutoff is the intra-cluster distance threshold used to pick k
	// (the paper's "cutoff threshold to determine some suitable
	// inter-cluster distance", §5.8).
	coalesceCutoff = 0.3
)

// SuggestPacks clusters the NF's scalar globals by access-vector
// similarity and returns packs of co-accessed variables (singletons are
// not packs — a lone variable gains nothing from coalescing).
func SuggestPacks(mod *ir.Module, prof *HostProfile, cfg CoalesceConfig) [][]string {
	var names []string
	var vecs [][]float64
	for _, g := range mod.Globals {
		if g.Kind != ir.GScalar {
			continue
		}
		v := prof.AccessVector(g.Name)
		if v == nil {
			continue
		}
		names = append(names, g.Name)
		vecs = append(vecs, v)
	}
	if len(names) < 2 {
		return nil
	}

	maxK := min(coalesceMaxK, len(names))
	// Pick the smallest k whose mean within-cluster distance falls under
	// the cutoff. If no k satisfies it, the vectors are all dissimilar;
	// fall back to a coarse two-way grouping — coalescing pays whenever a
	// packet touches at least two pack members, so over-splitting into
	// singletons forfeits the win (the paper's cutoff plays the same
	// tie-breaking role, §5.8).
	var chosen *ml.KMeans
	for k := 1; k <= maxK; k++ {
		km := ml.FitKMeans(vecs, k, cfg.Seed)
		if km.Inertia(vecs)/float64(len(vecs)) <= coalesceCutoff*coalesceCutoff {
			chosen = km
			break
		}
	}
	if chosen == nil {
		k := 2
		if k > len(vecs) {
			k = len(vecs)
		}
		chosen = ml.FitKMeans(vecs, k, cfg.Seed)
	}

	clusters := map[int][]string{}
	for i, v := range vecs {
		c := chosen.Assign(v)
		clusters[c] = append(clusters[c], names[i])
	}
	keys := make([]int, 0, len(clusters))
	//claravet:allow order-insensitive: keys is sorted right below
	for c := range clusters {
		keys = append(keys, c)
	}
	sort.Ints(keys)
	var packs [][]string
	for _, c := range keys {
		if len(clusters[c]) >= 2 {
			sort.Strings(clusters[c])
			packs = append(packs, clusters[c])
		}
	}
	return packs
}

// HotScalars returns the scalars accessed from the top-k most frequently
// executed blocks, by descending access frequency — the variable set the
// §5.8 expert sweeps.
func HotScalars(mod *ir.Module, prof *HostProfile, topBlocks, maxVars int) []string {
	type bf struct {
		b int
		f float64
	}
	blocks := make([]bf, len(prof.BlockFreq))
	for b, f := range prof.BlockFreq {
		blocks[b] = bf{b, f}
	}
	sort.Slice(blocks, func(i, j int) bool {
		if blocks[i].f != blocks[j].f {
			return blocks[i].f > blocks[j].f
		}
		return blocks[i].b < blocks[j].b
	})
	hot := map[int]bool{}
	for i := 0; i < topBlocks && i < len(blocks); i++ {
		hot[blocks[i].b] = true
	}
	type nf struct {
		name string
		f    float64
	}
	var cands []nf
	for _, g := range mod.Globals {
		if g.Kind != ir.GScalar {
			continue
		}
		va := prof.BlockAccess[g.Name]
		if va == nil {
			continue
		}
		inHot := 0.0
		for b, c := range va {
			if hot[b] {
				inHot += c
			}
		}
		if inHot > 0 {
			cands = append(cands, nf{g.Name, prof.GlobalFreq[g.Name]})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].f != cands[j].f {
			return cands[i].f > cands[j].f
		}
		return cands[i].name < cands[j].name
	})
	if len(cands) > maxVars {
		cands = cands[:maxVars]
	}
	out := make([]string, len(cands))
	for i, c := range cands {
		out[i] = c.name
	}
	return out
}

// Partitions enumerates all set partitions of items (the expert's
// exhaustive packing sweep; Bell(5) = 52, so this stays tiny).
func Partitions(items []string) [][][]string {
	if len(items) == 0 {
		return [][][]string{{}}
	}
	head, rest := items[0], items[1:]
	var out [][][]string
	for _, sub := range Partitions(rest) {
		// head joins each existing group...
		for gi := range sub {
			next := make([][]string, len(sub))
			for i := range sub {
				next[i] = append([]string(nil), sub[i]...)
			}
			next[gi] = append([]string{head}, next[gi]...)
			out = append(out, next)
		}
		// ...or starts its own.
		alone := make([][]string, 0, len(sub)+1)
		alone = append(alone, []string{head})
		for i := range sub {
			alone = append(alone, append([]string(nil), sub[i]...))
		}
		out = append(out, alone)
	}
	return out
}

// PacksFromPartition drops singleton groups (they are not packs).
func PacksFromPartition(part [][]string) [][]string {
	var out [][]string
	for _, g := range part {
		if len(g) >= 2 {
			out = append(out, g)
		}
	}
	return out
}
