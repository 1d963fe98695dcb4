package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"

	"clara"
	"clara/internal/click"
	"clara/internal/core"
	"clara/internal/server"
	"clara/internal/synth"
)

// traffics are the three standard workloads in the order every generator
// cycles them, under their request spelling.
var traffics = []struct {
	name string
	spec clara.Workload
}{
	{"small", clara.SmallFlows},
	{"large", clara.LargeFlows},
	{"mix", clara.MediumMix},
}

// lightSet is cluster-light-batch's request: the library elements that
// profile in under 250 µs, so the serving path and not the analysis
// dominates the op.
var lightSet = []string{
	"aggcounter", "anonipaddr", "cmsketch_crc", "dnsproxy", "firewall", "forcetcp",
	"ipclassifier", "iprewriter", "mazunat", "tcpack", "tcpgen", "tcpresp",
	"timefilter", "tokenbucket", "udpcount", "udpipencap", "webgen", "webtcp",
}

// workload is one closed-loop benchmark workload. The measured phase ends
// on a multiple of block ops, so every run does whole blocks of identical
// composition and a run's throughput does not depend on where it stopped.
type workload struct {
	name    string
	clients int // closed-loop clients, one connection each
	block   int
	warm    int // warm-up ops, indices -warm..-1
	open    func(tool *clara.Tool, modelHash string, seed int64) (door, error)
}

func workloads() []workload {
	nproc := runtime.NumCPU()
	return []workload{
		// One client: Fleet.Run fans the batch out over nproc workers itself.
		{name: "library-sweep", clients: 1, block: 1, warm: 1, open: openFleet},
		{name: "unique-src", clients: nproc, block: uniqueBlock, warm: 64,
			open: func(tool *clara.Tool, hash string, seed int64) (door, error) {
				gen, err := uniqueSrc(seed)
				if err != nil {
					return nil, err
				}
				return openServer(tool, hash, gen)
			}},
		{name: "repeat-zipf", clients: nproc, block: zipfBlock, warm: zipfKeys(),
			open: func(tool *clara.Tool, hash string, seed int64) (door, error) {
				return openServer(tool, hash, repeatZipf(seed))
			}},
		{name: "cluster-light-batch", clients: nproc, block: len(traffics), warm: len(traffics),
			open: func(tool *clara.Tool, hash string, seed int64) (door, error) {
				return openCluster(tool, hash, lightBatch(seed))
			}},
	}
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// cycle maps an op index (warm-up indices are negative) onto the traffics.
func cycle(i int) int {
	n := len(traffics)
	return ((i % n) + n) % n
}

// uniqueBlock programs make one block of unique-src.
const uniqueBlock = 300

// uniqueSrc submits a never-seen program per op, generated from the Table 2
// corpus profile, so every cache (prediction, compiled program,
// fingerprint) misses and the LRUs churn. Program p is the same program
// under every seed, analysed under traffic p%3; the seed orders the
// programs within each block of 300. Generating the programs themselves
// from the seed moved a run's mean job cost by ±2 % — a third of the
// bounds — for no change in what the server is asked to do. Warm-up op -k
// is program -k, which no measured op submits.
func uniqueSrc(seed int64) (func(int) (server.AnalyzeRequest, []job), error) {
	mods, err := click.Modules(click.Table2Order)
	if err != nil {
		return nil, err
	}
	prof := core.CorpusProfile(mods)
	order := &blockShuffle{seed: seed, items: make([]int, uniqueBlock)}
	for k := range order.items {
		order.items[k] = k
	}
	return func(i int) (server.AnalyzeRequest, []job) {
		p := i
		if i >= 0 {
			b, k := order.at(i)
			p = b*uniqueBlock + k
		}
		src := synth.Generate(synth.Config{Profile: prof, Seed: 1000003 + int64(p)})
		name := fmt.Sprintf("u%d", p)
		wl := cycle(p)
		return server.AnalyzeRequest{Src: src, Name: name, Workload: traffics[wl].name},
			[]job{{name: name, src: src, wl: wl}}
	}, nil
}

// zipfBlock ops hold every key in exact Zipf proportion. Drawing keys
// independently instead would let the count of 25 ms wepdecap jobs in a run
// vary by ±8 %, which is most of the metric bounds.
const (
	zipfBlock = 500
	zipfS     = 1.1
	// zipfRankSeed fixes which key holds which popularity rank. It is not
	// the run's seed: which heavy element lands on a popular rank moves
	// jobs/s by 40 %, and a bound has to hold across seeds.
	zipfRankSeed = 2021
)

func zipfKeys() int { return len(click.Library()) * len(traffics) }

// zipfCounts splits total ops over n ranks in proportion to rank^-s,
// rounding by largest remainder so the counts sum to total.
func zipfCounts(n int, s float64, total int) []int {
	w := make([]float64, n)
	var sum float64
	for k := range w {
		w[k] = math.Pow(float64(k+1), -s)
		sum += w[k]
	}
	counts := make([]int, n)
	rem := make([]float64, n)
	left := total
	for k := range w {
		exact := w[k] / sum * float64(total)
		counts[k] = int(exact)
		rem[k] = exact - float64(counts[k])
		left -= counts[k]
	}
	order := make([]int, n)
	for k := range order {
		order[k] = k
	}
	sort.SliceStable(order, func(a, b int) bool { return rem[order[a]] > rem[order[b]] })
	for _, k := range order[:left] {
		counts[k]++
	}
	return counts
}

// blockShuffle orders a workload's ops: op i is item i%len(items) of block
// i/len(items), and each block is items shuffled by (seed, block). Every
// block therefore holds the same items whatever the seed, and a measured
// phase of whole blocks does the same work under every seed — the seed
// moves the order, which moves what sits in the LRUs and which jobs run
// side by side, not the amount of work.
type blockShuffle struct {
	seed  int64
	items []int

	mu     sync.Mutex
	blocks map[int][]int
}

func (s *blockShuffle) at(i int) (block, item int) {
	n := len(s.items)
	b := i / n
	s.mu.Lock()
	defer s.mu.Unlock()
	blk := s.blocks[b]
	if blk == nil {
		blk = append([]int(nil), s.items...)
		rand.New(rand.NewSource(s.seed*1000003+int64(b))).Shuffle(n, func(x, y int) {
			blk[x], blk[y] = blk[y], blk[x]
		})
		if s.blocks == nil {
			s.blocks = map[int][]int{}
		}
		s.blocks[b] = blk
		delete(s.blocks, b-2) // clients are at most a block apart
	}
	return b, blk[i%n]
}

// zipfItems is one block of repeat-zipf: every key in exact Zipf proportion.
func zipfItems() []int {
	n := zipfKeys()
	rank := rand.New(rand.NewSource(zipfRankSeed)).Perm(n)
	var items []int
	for r, c := range zipfCounts(n, zipfS, zipfBlock) {
		for ; c > 0; c-- {
			items = append(items, rank[r])
		}
	}
	return items
}

// repeatZipf draws single-job {nf, workload} requests over the whole
// library × the three traffics, a working set (78 keys) far inside every
// cache; warm-up op -k touches key k-1.
func repeatZipf(seed int64) func(int) (server.AnalyzeRequest, []job) {
	z := &blockShuffle{seed: seed, items: zipfItems()}
	lib := click.Library()
	return func(i int) (server.AnalyzeRequest, []job) {
		key := -i - 1
		if i >= 0 {
			_, key = z.at(i)
		}
		e, wl := lib[key/len(traffics)], key%len(traffics)
		return server.AnalyzeRequest{NF: e.Name, Workload: traffics[wl].name},
			[]job{{name: e.Name, elem: e, wl: wl}}
	}
}

// lightBatch requests the 18 light elements in one batch, in an order the
// seed shuffles per op; the work is the same whatever the seed.
func lightBatch(seed int64) func(int) (server.AnalyzeRequest, []job) {
	return func(i int) (server.AnalyzeRequest, []job) {
		names := append([]string(nil), lightSet...)
		rand.New(rand.NewSource(seed*1000003+int64(i))).Shuffle(len(names), func(x, y int) {
			names[x], names[y] = names[y], names[x]
		})
		wl := cycle(i)
		js := make([]job, len(names))
		for k, n := range names {
			js[k] = job{name: n, elem: clara.GetElement(n), wl: wl}
		}
		return server.AnalyzeRequest{NFs: names, Workload: traffics[wl].name}, js
	}
}
