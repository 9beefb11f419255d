package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"rmt/internal/adversary"
	"rmt/internal/benchdef"
	"rmt/internal/byzantine"
	"rmt/internal/cliutil"
	"rmt/internal/gen"
	"rmt/internal/graph"
	"rmt/internal/instance"
	"rmt/internal/nodeset"
	"rmt/internal/protocol"
	"rmt/internal/server"
)

// op is one request of a workload's op sequence: everything the client
// sends, plus the label the traffic-shape report groups its time under.
type op struct {
	path  string
	body  []byte
	class string
	// ref is feasibility-hot's working-set index: the primed instance
	// this request re-spells.
	ref int
}

// plan is a workload's generated input, complete before any clock starts.
// Every set-up repetition sends prime (feasibility-hot's working set) and
// then warm to a fresh server; ops is the timed sequence. The op streams are
// prefix-stable: op i depends only on the seed and i, so a shorter run
// replays a prefix of a longer one.
type plan struct {
	warm      []op
	prime     []op
	ops       []op
	generated time.Time // when the last input was made
}

// workload names one traffic mix. rate is the op count per second of
// --seconds: runs replay a fixed op count, so a slower host or program
// takes longer instead of measuring a different mix.
type workload struct {
	name     string
	rate     float64
	generate func(seed int64, n int) (*plan, error)
}

var workloads = []workload{
	{"feasibility-cold", 2500, genFeasibilityCold},
	{"feasibility-hot", 6000, genFeasibilityHot},
	{"run-mix", 1400, genRunMix},
	{"watch-churn", 800, genWatchChurn},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// opCount is the fixed number of timed ops for a run of the given length.
func (w workload) opCount(seconds int) int { return int(w.rate * float64(seconds)) }

// plan generates the inputs of a run of n timed ops.
func (w workload) plan(seed int64, n int) (*plan, error) {
	p, err := w.generate(seed, n)
	if err != nil {
		return nil, err
	}
	p.generated = time.Now()
	return p, nil
}

// streamHash is the seed of element i of a named stream: FNV over the
// stream name, then a splitmix64 finalizer over (seed, i), so every op is
// independent of how many ops precede it.
func streamHash(seed int64, stream string, i int) uint64 {
	h := uint64(seed)
	for _, c := range []byte(stream) {
		h = (h ^ uint64(c)) * 0x100000001b3
	}
	h += 0x9e3779b97f4a7c15 * uint64(i+1)
	h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
	h = (h ^ (h >> 27)) * 0x94d049bb133111eb
	return h ^ (h >> 31)
}

// streamRand is a generator seeded for element i of a named stream.
func streamRand(seed int64, stream string, i int) *rand.Rand {
	return rand.New(rand.NewSource(int64(streamHash(seed, stream, i))))
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // request types are plain data; a failure is a bug here
	}
	return b
}

var levelNames = []string{"adhoc", "radius1", "radius2", "radius3", "full"}

// buildRequest turns a request's instance tuple into the instance rmtd
// builds from it, with the same parsers the handler uses.
func buildRequest(q server.InstanceRequest) (*instance.Instance, gen.Knowledge, error) {
	g, err := graph.ParseEdgeList(q.Graph)
	if err != nil {
		return nil, 0, err
	}
	z, err := cliutil.ParseStructure(q.Structure)
	if err != nil {
		return nil, 0, err
	}
	level := gen.AdHoc
	if q.Knowledge != "" {
		if level, err = cliutil.ParseKnowledge(q.Knowledge); err != nil {
			return nil, 0, err
		}
	}
	in, err := gen.Build(g, z, level, q.Dealer, q.Receiver)
	return in, level, err
}

func instanceRequest(in *instance.Instance, level string) server.InstanceRequest {
	return server.InstanceRequest{
		Graph:     cliutil.FormatEdgeList(in.G),
		Structure: cliutil.FormatStructure(in.Z),
		Knowledge: level,
		Dealer:    in.Dealer,
		Receiver:  in.Receiver,
	}
}

// ------------------------------------------------------------ feasibility

// feasibilityRequest draws element i of the feasibility instance stream.
// The stream is stratified so every seed runs the same mix: each block of
// 300 consecutive elements holds every (knowledge level, family, size)
// triple once. Seven in ten are seeded G(n, p) graphs with n in 9..14, two
// in ten add a listening structure (the SMT verdict's work), one in ten is
// a complete graph K_n with n in 5..10 and a suppression budget (the MBRB
// verdict). The size bound keeps every search well under 1% of a run.
func feasibilityRequest(seed int64, stream string, i int) (server.FeasibilityRequest, string) {
	r := streamRand(seed, stream, i)
	level := levelNames[i%len(levelNames)]
	family := (i / len(levelNames)) % 10
	size := (i / (10 * len(levelNames))) % 6
	var req server.FeasibilityRequest
	switch {
	case family == 9:
		n := 5 + size
		g := gen.Complete(n)
		z := adversary.Random(r, g.Nodes().Minus(nodeset.Of(0, n-1)), 2+r.Intn(2), 0.3)
		in, err := gen.Build(g, z, gen.AdHoc, 0, n-1)
		if err != nil {
			panic(err) // the structure avoids both terminals
		}
		req.InstanceRequest = instanceRequest(in, level)
		req.MABudget = r.Intn(3)
		return req, "mbrb"
	default:
		n := 9 + size
		in, err := gen.RandomInstance(r, n, 0.25+0.25*r.Float64(), 2+r.Intn(3), 0.3, gen.AdHoc)
		if err != nil {
			panic(err) // RandomInstance never corrupts terminals
		}
		req.InstanceRequest = instanceRequest(in, level)
		if family >= 7 {
			l := adversary.Random(r, in.G.Nodes().Minus(nodeset.Of(in.Dealer, in.Receiver)), 1+r.Intn(2), 0.25)
			req.Listen = cliutil.FormatStructure(l)
			return req, "smt"
		}
		return req, "gnp"
	}
}

// feasibilityKey identifies the cache entry a generated request maps to.
// Generated requests spell graphs and structures canonically (sorted
// edges, normalized maximal sets), so equal text means an equal rmtd
// cache key and distinct text a distinct one.
func feasibilityKey(req server.FeasibilityRequest) string {
	return fmt.Sprintf("%s|%d|%s|%s|%s|%d|%d", req.Knowledge, req.MABudget, req.Listen, req.Graph, req.Structure, req.Dealer, req.Receiver)
}

// distinctFeasibility draws n requests from a stream, skipping any whose
// cache key an earlier draw (in seen) already has.
func distinctFeasibility(seed int64, stream string, n int, seen map[string]bool) ([]server.FeasibilityRequest, []string) {
	var reqs []server.FeasibilityRequest
	var classes []string
	for i := 0; len(reqs) < n; i++ {
		req, class := feasibilityRequest(seed, stream, i)
		key := feasibilityKey(req)
		if seen[key] {
			continue
		}
		seen[key] = true
		reqs = append(reqs, req)
		classes = append(classes, class)
	}
	return reqs, classes
}

// warmOps is the number of warm-up ops each set-up repetition sends.
// Warm-up inputs come from a fixed seed, so setup_s times the same work on
// every seed.
const (
	warmOps  = 64
	warmSeed = 0
)

func genFeasibilityCold(seed int64, n int) (*plan, error) {
	seen := map[string]bool{}
	warm, wc := distinctFeasibility(warmSeed, "cold-warm", warmOps, seen)
	reqs, classes := distinctFeasibility(seed, "cold", n, seen)
	p := &plan{}
	for i, req := range warm {
		p.warm = append(p.warm, op{"/v1/feasibility", mustJSON(req), wc[i], 0})
	}
	for i, req := range reqs {
		p.ops = append(p.ops, op{"/v1/feasibility", mustJSON(req), classes[i], 0})
	}
	return p, nil
}

// hotWorkingSet is feasibility-hot's instance count: one full
// stratification cycle of the feasibility stream (every level, family and
// size once), under a third of rmtd's default 1,024-entry LRU, so every
// timed request hits.
const hotWorkingSet = 300

// hotSpellings is how many distinct bodies feasibility-hot sends per
// instance.
const hotSpellings = 12

func genFeasibilityHot(seed int64, n int) (*plan, error) {
	set, classes := distinctFeasibility(seed, "hot", hotWorkingSet, map[string]bool{})
	p := &plan{}
	for i, req := range set {
		p.prime = append(p.prime, op{"/v1/feasibility", mustJSON(req), classes[i], i})
	}
	respell := func(r *rand.Rand, k int) op {
		req := set[k]
		req.Graph = respellEdges(r, req.Graph)
		req.Structure = respellStructure(r, req.Structure)
		req.Listen = respellStructure(r, req.Listen)
		return op{"/v1/feasibility", mustJSON(req), classes[k], k}
	}
	for i := 0; i < warmOps; i++ {
		p.warm = append(p.warm, respell(streamRand(seed, "hot-warm", i), i%len(set)))
	}
	// Timed op i asks for instance i mod 300, so every instance is asked
	// for equally often, in one of its spellings. rmtd keys its cache by
	// canonical instance, so a spelling seen before costs the same decode,
	// build and hash as a new one, and a pool of spellings keeps the
	// inputs small.
	pool := make([]op, hotWorkingSet*hotSpellings)
	for j := range pool {
		pool[j] = respell(streamRand(seed, "hot-ops", j), j%hotWorkingSet)
	}
	for i := 0; i < n; i++ {
		s := int(streamHash(seed, "hot-order", i) % hotSpellings)
		p.ops = append(p.ops, pool[s*hotWorkingSet+i%hotWorkingSet])
	}
	return p, nil
}

// respellEdges shuffles an edge list's order and endpoint orientation:
// the same graph, spelled differently.
func respellEdges(r *rand.Rand, s string) string {
	f := strings.Fields(s)
	r.Shuffle(len(f), func(i, j int) { f[i], f[j] = f[j], f[i] })
	for i, e := range f {
		if u, v, ok := strings.Cut(e, "-"); ok && r.Intn(2) == 0 {
			f[i] = v + "-" + u
		}
	}
	return strings.Join(f, " ")
}

// respellStructure shuffles the order of a structure's sets and of the
// members within each set.
func respellStructure(r *rand.Rand, s string) string {
	if s == "" {
		return s
	}
	sets := strings.Split(s, ";")
	for i, set := range sets {
		m := strings.Split(set, ",")
		r.Shuffle(len(m), func(a, b int) { m[a], m[b] = m[b], m[a] })
		sets[i] = strings.Join(m, ",")
	}
	r.Shuffle(len(sets), func(i, j int) { sets[i], sets[j] = sets[j], sets[i] })
	return strings.Join(sets, ";")
}

// ---------------------------------------------------------------- run-mix

// runFamily is one run-mix instance family: a protocol and its benchdef
// instances, indexed by size so every seed runs the same sizes equally
// often. build reports whether the instance is solvable for the protocol
// (no RMT-cut, or the family's own condition); only solvable instances run
// under a corruption, so every run must decide. Lopsided chains have an
// RMT-cut under ad hoc knowledge — the two one-hop chains carry the
// decision only while they are honest — so they run honest.
type runFamily struct {
	protocol string
	sizes    int
	build    func(k int) (in *instance.Instance, level string, solvable bool, err error)
}

// pkaChains are RMT-PKA's solvable relay chains: (paths, hops, knowledge)
// with radius ≥ hops, so no RMT-cut survives the join.
var pkaChains = []struct {
	paths, hops int
	level       gen.Knowledge
}{{3, 2, gen.Radius2}, {4, 2, gen.Radius2}, {5, 2, gen.Radius2}, {3, 2, gen.Radius3}, {4, 2, gen.Radius3}, {3, 3, gen.Radius3}}

var runFamilies = []runFamily{
	{protocol.PKA, 12, func(k int) (*instance.Instance, string, bool, error) {
		if k%2 == 0 {
			c := pkaChains[k/2]
			in, err := benchdef.ChainInstance(c.paths, c.hops, c.level)
			return in, c.level.String(), true, err
		}
		in, err := benchdef.LopsidedChainInstance([]int{1, 1, 16 + 8*(k/2)}, gen.AdHoc)
		return in, "adhoc", false, err
	}},
	{protocol.ZCPA, 12, func(k int) (*instance.Instance, string, bool, error) {
		in, err := benchdef.ChainInstance(12+3*k, 1, gen.AdHoc)
		return in, "adhoc", true, err
	}},
	{protocol.PPA, 15, func(k int) (*instance.Instance, string, bool, error) {
		in, err := benchdef.ChainInstance(4+k%5, 2+k/5, gen.FullKnowledge)
		return in, "full", true, err
	}},
	{protocol.Broadcast, 12, func(k int) (*instance.Instance, string, bool, error) {
		in, err := benchdef.ChainInstance(16+4*k, 1, gen.AdHoc)
		return in, "adhoc", true, err
	}},
	{protocol.MBRB, 10, func(k int) (*instance.Instance, string, bool, error) {
		in, err := benchdef.CompleteInstance(10+2*k, gen.AdHoc)
		return in, "adhoc", true, err
	}},
	{protocol.SMT, 12, func(k int) (*instance.Instance, string, bool, error) {
		in, err := benchdef.SMTInstance(24+6*k, gen.AdHoc)
		return in, "adhoc", true, err
	}},
}

// runEngines are the engine/schedule pairs run-mix cycles through. The
// goroutine engine is left out: it spawns a goroutine per player per
// round, which would put more runnable goroutines than CPUs behind one op.
var runEngines = [][2]string{{"lockstep", "sync"}, {"async", "sync"}, {"async", "random"}, {"async", "fifo"}}

// runInstances memoizes family instances and their knowledge levels by
// (family, size): benchdef families are deterministic, so each is built
// once per generation.
type runInstances map[[2]int]builtInstance

type builtInstance struct {
	in       *instance.Instance
	level    string
	solvable bool
}

// runRequest draws element i of a run-mix stream. Protocol, size, engine,
// corruption and trial count follow fixed cycles, so every seed runs the
// same mix: protocols rotate; each protocol's j-th request uses size j mod
// its size count and engine j mod 4, runs under a corruption when j mod 3
// is 2 and the instance is solvable, and asks for min(2, nproc) trials
// when j/3 mod 4 is 3. The seed
// picks the corrupted maximal set, the Byzantine strategy and the run seed
// (which drives async schedules); the run seed is unique to the element so
// no request repeats a cache key.
func runRequest(seed int64, stream string, i int, built runInstances) (server.RunRequest, string, error) {
	r := streamRand(seed, stream, i)
	f := i % len(runFamilies)
	fam, j := runFamilies[f], i/len(runFamilies)
	k := j % fam.sizes
	b, ok := built[[2]int{f, k}]
	if !ok {
		in, level, solvable, err := fam.build(k)
		if err != nil {
			return server.RunRequest{}, "", err
		}
		b = builtInstance{in, level, solvable}
		built[[2]int{f, k}] = b
	}
	in := b.in
	eng := runEngines[j%len(runEngines)]
	req := server.RunRequest{
		InstanceRequest: instanceRequest(in, b.level),
		Protocol:        fam.protocol,
		Engine:          eng[0],
		Schedule:        eng[1],
		Seed:            seed*1_000_003 + int64(i) + streamOffset(stream),
		Trials:          1,
	}
	if j/3%4 == 3 {
		req.Trials = min(2, runtime.NumCPU())
	}
	if j%3 == 2 && b.solvable {
		maxl := in.MaximalCorruptions()
		req.Corrupt = maxl[r.Intn(len(maxl))].Members()
		names := byzantine.Names()
		req.Attack = names[r.Intn(len(names))]
	}
	return req, fam.protocol, nil
}

// streamOffset keeps the warm-up and timed streams' run seeds apart.
func streamOffset(stream string) int64 {
	if stream == "run-warm" {
		return 1 << 40
	}
	return 0
}

func genRunMix(seed int64, n int) (*plan, error) {
	p := &plan{}
	built := runInstances{}
	for _, s := range []struct {
		name string
		n    int
		dst  *[]op
		seed int64
	}{{"run-warm", warmOps, &p.warm, warmSeed}, {"run", n, &p.ops, seed}} {
		for i := 0; i < s.n; i++ {
			req, class, err := runRequest(s.seed, s.name, i, built)
			if err != nil {
				return nil, fmt.Errorf("%s element %d: %w", s.name, i, err)
			}
			*s.dst = append(*s.dst, op{"/v1/run", mustJSON(req), class, 0})
		}
	}
	return p, nil
}

// ------------------------------------------------------------ watch-churn

// watchBody draws element i of a watch stream: an ad hoc G(n, p) base
// instance and a seeded chain of single-edit deltas, as one ndjson body.
// Base size (9..12 nodes) and chain length (6..12 deltas) cycle with i, so
// every seed runs the same mix. It also returns the base's canonical key,
// which names the subscription's cache entries.
func watchBody(seed int64, stream string, i int) ([]byte, string, error) {
	r := streamRand(seed, stream, i)
	n := 9 + i%4
	in, err := gen.RandomInstance(r, n, 0.3+0.2*r.Float64(), 2+r.Intn(2), 0.3, gen.AdHoc)
	if err != nil {
		return nil, "", err
	}
	req := instanceRequest(in, "adhoc")
	// Rebuild from the request text so the chain is drawn against exactly
	// the instance rmtd will hold.
	base, _, err := buildRequest(req)
	if err != nil {
		return nil, "", err
	}
	deltas, err := gen.RandomDeltaChain(base, gen.AdHoc, 6+i/4%7, r.Int63())
	if err != nil {
		return nil, "", err
	}
	var b bytes.Buffer
	b.Write(mustJSON(req))
	for _, d := range deltas {
		b.WriteByte('\n')
		b.Write(mustJSON(d))
	}
	b.WriteByte('\n')
	return b.Bytes(), base.CanonicalKey(), nil
}

func genWatchChurn(seed int64, n int) (*plan, error) {
	p := &plan{}
	seen := map[string]bool{}
	for _, s := range []struct {
		name string
		n    int
		dst  *[]op
		seed int64
	}{{"watch-warm", warmOps, &p.warm, warmSeed}, {"watch", n, &p.ops, seed}} {
		for i := 0; len(*s.dst) < s.n; i++ {
			body, key, err := watchBody(s.seed, s.name, i)
			if err != nil {
				return nil, fmt.Errorf("%s element %d: %w", s.name, i, err)
			}
			if seen[key] {
				continue
			}
			seen[key] = true
			*s.dst = append(*s.dst, op{"/v1/watch", body, "watch", 0})
		}
	}
	return p, nil
}
