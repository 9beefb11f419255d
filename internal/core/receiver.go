package core

import (
	"context"
	"encoding/binary"
	"sort"
	"strconv"

	"rmt/internal/cutsearch"
	"rmt/internal/graph"
	"rmt/internal/instance"
	"rmt/internal/network"
	"rmt/internal/nodeset"
)

// maxSearchIDs bounds the receiver's full-set subset search. Beyond this
// many known node IDs the receiver only attempts the canonical
// all-information candidate (which is the one that fires in honest and
// silent-adversary runs); the exhaustive fallback would be intractable
// anyway, matching the protocol's inherently super-polynomial local
// computation (Section 5 of the paper).
const maxSearchIDs = 22

// Memoization bounds for the receiver's decision subroutine. Entries are
// keyed by the exact claim versions of a candidate message set, so they
// never need invalidation (a new claim version is a new key); the caps only
// bound memory against adversaries that spray versions.
const (
	// maxMemoEntries caps the number of memoized candidate message sets.
	maxMemoEntries = 1 << 14
	// maxMemoPaths caps the interned D–R paths per candidate; candidates
	// with more paths keep their decision graph but re-stream enumeration.
	maxMemoPaths = 2048
)

// claimVer is one stored version of a type-2 claim: the sealed claim plus
// its interned version ID (-1 when the intern table was full, in which case
// candidates naming this version cannot be keyed and are evaluated on a
// record that is not stored).
type claimVer struct {
	info NodeInfo
	vid  int32
}

// valState is the packed type-1 store for one claimed value x: the set of
// interned IDs of received D–R paths, plus an unpacked overflow list for
// paths that could not be interned (table at capacity, or node IDs outside
// the dense range).
type valState struct {
	x    network.Value
	recv nodeset.Set
	over []overPath
}

// overPath is one un-interned received path. fits records whether nodes is
// meaningful (false for paths naming IDs outside the dense range, which the
// candidate pre-filter must then pass conservatively).
type overPath struct {
	key   string
	nodes nodeset.Set
	fits  bool
}

// vpair is a (node, version) pair of a candidate memo key.
type vpair struct {
	id  int
	vid int32
}

// Receiver is RMT-PKA's receiver process. It accumulates both message
// types and evaluates the decision subroutine after every round:
//
//	(* dealer propagation rule *)    decide x_D received directly from D;
//	(* full message set rule *)      decide x if some valid, full message
//	                                 set M with value(M) = x has no
//	                                 adversary cover.
//
// All hot-path state is packed: received D–R paths and claim versions are
// interned into small ints at ingest, so per-round fullness checks are
// bitset subset tests and candidate memo probes are byte-key map lookups
// instead of rendered-string comparisons. The intern tables and candidate
// records live on the instance (pkaShared) and stay warm across runs.
type Receiver struct {
	id     int
	dealer int

	// ownClaim is R's own initial knowledge, implicitly part of every M.
	ownClaim claimVer

	decided bool
	value   network.Value
	dirty   bool // new messages since the last search
	horizon int  // Horizon-PKA bound on D–R path length in nodes; 0 = off

	// ctx is the run's context (protocol.Options.Context), polled once
	// per subset and once per candidate of the search: a search that
	// finds it ended gives up undecided, and the engine ends the run with
	// its error.
	ctx context.Context

	// The instance's interners and its candidate-record store for this
	// horizon (pkaShared.stores).
	paths *pathInterner
	vers  *verInterner
	store *candStore

	// vals[i] packs the received type-1 messages for one value, ascending.
	vals []*valState
	// claims maps a claimed node to its received versions, sorted by
	// version key — the canonical enumeration order of the claim-combo
	// search. Claims about R itself are dropped at ingest: every candidate
	// substitutes R's own knowledge for its member slot, so they can never
	// influence a decision.
	claims map[int][]claimVer

	// Incrementally maintained search inputs.
	knownIDs  []int // claimed nodes plus r.id, sorted
	contested int   // claimed nodes with ≥ 2 versions

	// verSlab backs the single-version common case of claims: first
	// versions are appended here and each node's slice points into it, so a
	// run allocates one arena instead of one slice per claimed node.
	// Contested nodes grow past their capacity-1 sub-slice and migrate to
	// their own backing automatically.
	verSlab []claimVer

	// Reused scratch buffers (per-run; grown once, then allocation-free).
	keyBuf         []byte
	candKey        []byte
	memberSet      nodeset.Set
	membersScratch []int
	viewsScratch   []*graph.Graph // graphOfCombo's claimed views, by node ID
	optScratch     []int
	comboScratch   []claimVer
	pairScratch    []vpair
	passVals       []*valState
	pnodes         []nodeset.Set // interner node-set snapshot per search
}

// newReceiver builds R's process on the instance's warm store for a run
// whose context is ctx (nil for none).
func newReceiver(in *instance.Instance, sh *pkaShared, horizon int, ctx context.Context) *Receiver {
	if ctx == nil {
		ctx = context.Background()
	}
	n := in.N()
	r := &Receiver{
		id:       in.Receiver,
		dealer:   in.Dealer,
		horizon:  horizon,
		ctx:      ctx,
		paths:    &sh.paths,
		vers:     &sh.vers,
		store:    sh.stores.Get(horizon, func() *candStore { return new(candStore) }),
		claims:   make(map[int][]claimVer, n),
		knownIDs: make([]int, 1, n+1),
		verSlab:  make([]claimVer, 0, n),
	}
	r.knownIDs[0] = in.Receiver
	r.ownClaim = claimVer{info: sh.infos[in.Receiver], vid: -1}
	if v, ok := r.vers.intern(r.ownClaim.info.VersionKey()); ok {
		r.ownClaim.vid = v
	}
	return r
}

// Init implements network.Process: R announces nothing (Protocol 1 gives R
// no send code).
func (r *Receiver) Init(network.Outbox) {}

// Round implements network.Process.
func (r *Receiver) Round(_ int, inbox []network.Message, _ network.Outbox) bool {
	if r.decided {
		return false
	}
	for _, m := range inbox {
		r.ingest(m)
	}
	if r.decided { // dealer rule fired during ingestion
		return false
	}
	if r.dirty {
		r.dirty = false
		if x, ok := r.searchDecision(); ok {
			r.decided, r.value = true, x
			return false
		}
	}
	return true
}

// Decision implements network.Process.
func (r *Receiver) Decision() (network.Value, bool) { return r.value, r.decided }

// ingest validates a message's trail against the authenticated channel and
// records it. Trails that already contain R, or whose tail is not the
// actual sender, are forged (R relays nothing) and are discarded — the same
// admission rule the relays apply, which Theorem 4's safety argument needs.
func (r *Receiver) ingest(m network.Message) {
	if trail, ok := trailOf(m.Payload); !ok || !trail.Admissible(r.id, m.From) {
		return // erroneous message or forged trail
	}
	switch msg := m.Payload.(type) {
	case ValueMsg:
		// Dealer propagation rule: a direct (x_D, {D}) from D itself.
		if m.From == r.dealer && len(msg.P) == 1 && msg.P[0] == r.dealer {
			r.decided, r.value = true, msg.X
			return
		}
		r.ingestValue(msg)
	case InfoMsg:
		r.ingestInfo(msg.Info)
	}
}

// ingestValue records a type-1 message. The D–R path it witnesses is the
// trail extended by R itself, which is what fullness matches on; the path
// is interned so the hot store is a bitset of path IDs. The full path is
// only materialized on an intern-table miss.
func (r *Receiver) ingestValue(msg ValueMsg) {
	vs := r.valOf(msg.X)
	r.keyBuf = appendPathKey(r.keyBuf[:0], msg.P)
	r.keyBuf = append(r.keyBuf, ',')
	r.keyBuf = strconv.AppendInt(r.keyBuf, int64(r.id), 10)
	if pid, ok := r.paths.lookup(r.keyBuf); ok {
		if !vs.recv.Contains(int(pid)) {
			vs.recv.MutateAdd(int(pid))
			r.dirty = true
		}
		return
	}
	full := msg.P.Append(r.id)
	if pid, ok := r.paths.intern(r.keyBuf, full); ok {
		// Not a duplicate: the key was absent from the intern table, and a
		// path this run already received would be either interned or on the
		// overflow list — and the table never loses entries once full.
		vs.recv.MutateAdd(int(pid))
		r.dirty = true
		return
	}
	// Interner at capacity, or the path names IDs outside the dense range:
	// unpacked fallback keyed by the rendered path.
	if overHas(vs.over, r.keyBuf) {
		return
	}
	ns, fits := pathNodeSet(full)
	vs.over = append(vs.over, overPath{key: string(r.keyBuf), nodes: ns, fits: fits})
	r.dirty = true
}

// ingestInfo records a type-2 claim version and maintains the incremental
// search inputs: the known-ID set and the contested count.
func (r *Receiver) ingestInfo(info NodeInfo) {
	node := info.Node
	if node == r.id {
		// Every candidate substitutes R's own knowledge for its member
		// slot, so claims about R are inert; drop them instead of storing.
		return
	}
	vers, seen := r.claims[node]
	k := info.VersionKey()
	i := sort.Search(len(vers), func(i int) bool { return vers[i].info.VersionKey() >= k })
	if i < len(vers) && vers[i].info.VersionKey() == k {
		return // duplicate version
	}
	if !wellFormed(info) {
		return // erroneous message
	}
	if !seen {
		r.knownIDs = insertSortedInt(r.knownIDs, node)
	}
	// Seal the stored copy so every later VersionKey call — claim combos,
	// candidate memo keys — reuses the rendered string.
	ni := info
	ni.key = k
	cv := claimVer{info: ni, vid: -1}
	if v, ok := r.vers.intern(k); ok {
		cv.vid = v
	}
	if !seen && len(r.verSlab) < cap(r.verSlab) {
		// Common case: first (and usually only) version of a node goes into
		// the shared arena; the capped sub-slice keeps later appends for
		// other nodes from clobbering it.
		r.verSlab = append(r.verSlab, cv)
		vers = r.verSlab[len(r.verSlab)-1 : len(r.verSlab) : len(r.verSlab)]
	} else {
		vers = append(vers, claimVer{})
		copy(vers[i+1:], vers[i:])
		vers[i] = cv
	}
	r.claims[node] = vers
	if len(vers) == 2 {
		r.contested++
	}
	r.dirty = true
}

// wellFormed reports whether a claim's structure has exactly its claimed
// view's node set as domain and keeps its maximal sets inside that domain
// (Restricted's invariant). Every honest claim (v, γ(v), 𝒵^{V(γ(v))})
// passes. coverFor decides Definition 6 node by node through the ⊕
// membership identity, which holds only for such claims, so the receiver
// treats any other claim as an erroneous message. Dropping a corrupted
// node's message is a move the adversary already has: Theorem 4's safety
// and Theorem 5's liveness arguments are untouched.
func wellFormed(info NodeInfo) bool {
	dom := info.Z.Domain
	if !dom.Equal(info.View.Nodes()) {
		return false
	}
	for _, m := range info.Z.Structure.Maximal() {
		if !m.SubsetOf(dom) {
			return false
		}
	}
	return true
}

// valOf returns the packed store for value x, inserting it in sorted
// position on first sight.
func (r *Receiver) valOf(x network.Value) *valState {
	i := sort.Search(len(r.vals), func(i int) bool { return r.vals[i].x >= x })
	if i < len(r.vals) && r.vals[i].x == x {
		return r.vals[i]
	}
	vs := &valState{x: x}
	r.vals = append(r.vals, nil)
	copy(r.vals[i+1:], r.vals[i:])
	r.vals[i] = vs
	return vs
}

// claimOf returns the claim version the canonical candidate uses for id.
// Only valid while no claim is contested.
func (r *Receiver) claimOf(id int) claimVer {
	if id == r.id {
		return r.ownClaim
	}
	return r.claims[id][0]
}

// searchDecision implements the full message set propagation rule: it
// searches for a valid M = (claims, x) that is full and has no adversary
// cover. It first tries the canonical candidate that includes every known
// node (the one that fires against silent adversaries, per the Theorem 5
// sufficiency proof), then falls back to an exhaustive search over node
// subsets and claim versions. It gives up undecided once the run's
// context ends.
func (r *Receiver) searchDecision() (network.Value, bool) {
	if r.claims[r.dealer] == nil {
		return "", false // G_M cannot contain D–R paths without D's info
	}
	if len(r.vals) == 0 {
		return "", false
	}
	_, r.pnodes = r.paths.snapshot()

	ids := r.knownIDs
	// Canonical candidate: all known nodes, when every claim is
	// uncontested (one version per node).
	if r.contested == 0 {
		combo := r.comboScratch[:0]
		for _, id := range ids {
			combo = append(combo, r.claimOf(id))
		}
		r.comboScratch = combo
		if pass := r.passingValues(ids); len(pass) > 0 {
			if x, ok := r.evalCandidate(ids, combo, pass); ok {
				return x, true
			}
		}
	}
	if len(ids) > maxSearchIDs {
		return "", false
	}

	// Exhaustive fallback: subsets S ∋ D, R of the known IDs, larger sets
	// first, with every combination of claim versions for contested nodes.
	optional := r.optScratch[:0]
	for _, id := range ids {
		if id != r.dealer && id != r.id {
			optional = append(optional, id)
		}
	}
	r.optScratch = optional
	for size := len(optional); size >= 0; size-- {
		var found network.Value
		ok := false
		forEachSubsetOfSize(optional, size, func(subset []int) bool {
			if r.ctx.Err() != nil {
				return false
			}
			members := append(r.membersScratch[:0], r.dealer, r.id)
			members = append(members, subset...)
			r.membersScratch = members
			pass := r.passingValues(members)
			if len(pass) == 0 {
				return true // no value can be full on these members
			}
			r.forEachCombo(members, func(combo []claimVer) bool {
				if r.ctx.Err() != nil {
					return false
				}
				if x, got := r.evalCandidate(members, combo, pass); got {
					found, ok = x, true
					return false
				}
				return true
			})
			return !ok
		})
		if ok {
			return found, true
		}
	}
	return "", false
}

// passingValues returns the type-1 values that could still certify a
// candidate on the given members, ascending. A candidate (M, x) is full
// only if every D–R path of G_M was received with x, and those paths run
// inside V(G_M) ⊆ members — so at least one received-x path must fit
// within the member set. Values with no fitting received path are filtered
// exactly (a candidate the unpacked search would have accepted is never
// skipped); when the member set cannot be packed (sparse IDs) or a received
// path is unpacked, the filter passes conservatively.
func (r *Receiver) passingValues(members []int) []*valState {
	pass := r.passVals[:0]
	dense := true
	r.memberSet.MutateClear()
	for _, id := range members {
		if id < 0 || id >= maxDenseID {
			dense = false
			break
		}
		r.memberSet.MutateAdd(id)
	}
	if !dense {
		pass = append(pass, r.vals...)
		r.passVals = pass
		return pass
	}
	for _, vs := range r.vals {
		fits := false
		vs.recv.ForEach(func(pid int) bool {
			if r.pnodes[pid].SubsetOf(r.memberSet) {
				fits = true
				return false
			}
			return true
		})
		if !fits {
			for i := range vs.over {
				if !vs.over[i].fits || vs.over[i].nodes.SubsetOf(r.memberSet) {
					fits = true
					break
				}
			}
		}
		if fits {
			pass = append(pass, vs)
		}
	}
	r.passVals = pass
	return pass
}

// forEachCombo enumerates every combination of claim versions for the
// members, in the canonical order: versions ascending by key, the last
// member varying fastest. The combo slice is reused across calls; fn must
// not retain it.
func (r *Receiver) forEachCombo(members []int, fn func(combo []claimVer) bool) {
	combo := r.comboScratch[:0]
	for range members {
		combo = append(combo, claimVer{})
	}
	r.comboScratch = combo
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == len(members) {
			return fn(combo)
		}
		if members[i] == r.id {
			combo[i] = r.ownClaim
			return rec(i + 1)
		}
		for _, cv := range r.claims[members[i]] {
			combo[i] = cv
			if !rec(i + 1) {
				return false
			}
		}
		return true
	}
	rec(0)
}

// evalCandidate checks Definitions 5 and 6 for the candidate M given by
// (members, combo) against each value in pass: every D–R path of G_M must
// have been received as a type-1 message carrying x, and no adversary cover
// may exist.
//
// G_M, its interned D–R path set, and the cover verdict are functions of
// the exact claim versions alone, so they live in a content-keyed candidate
// record shared across rounds — and, through pkaShared, across runs; only
// fullness (a bitset subset test against the growing type-1 store) is
// re-evaluated per call. A candidate that cannot be keyed (it names an
// uninterned claim version), or that finds the store full, is evaluated on
// a record of its own that is not stored.
func (r *Receiver) evalCandidate(members []int, combo []claimVer, pass []*valState) (network.Value, bool) {
	key, keyable := r.encodeCandKey(members, combo)
	var rec *candRec
	if keyable {
		rec = r.store.get(key)
	}
	if rec == nil {
		rec = r.buildRecord(members, combo)
		if keyable {
			if stored := r.store.put(key, rec); stored != nil {
				rec = stored
			}
		}
	}
	if rec.gm == nil || !rec.hasPath {
		// With no D–R path the empty set is an adversary cover, so a
		// pathless M never certifies.
		return "", false
	}
	for _, vs := range pass {
		if !r.recFull(rec, vs) {
			continue
		}
		c := rec.cover.Load()
		if c == 0 {
			covered, err := r.coverFor(rec.gm, members, combo)
			if err != nil {
				return "", false // the run's context ended: no verdict to store
			}
			if covered {
				c = 1
			} else {
				c = 2
			}
			rec.cover.Store(c)
		}
		if c == 2 {
			return vs.x, true
		}
		break // covered: no value can certify this candidate
	}
	return "", false
}

// encodeCandKey packs the candidate's exact claim versions as
// (node, version) varint pairs in ascending node order. It reports false
// when any version is uninterned (table at capacity).
func (r *Receiver) encodeCandKey(members []int, combo []claimVer) ([]byte, bool) {
	pairs := r.pairScratch[:0]
	for i, id := range members {
		if combo[i].vid < 0 {
			r.pairScratch = pairs
			return nil, false
		}
		pairs = append(pairs, vpair{id: id, vid: combo[i].vid})
	}
	for i := 1; i < len(pairs); i++ {
		p := pairs[i]
		j := i
		for j > 0 && pairs[j-1].id > p.id {
			pairs[j] = pairs[j-1]
			j--
		}
		pairs[j] = p
	}
	r.pairScratch = pairs
	k := r.candKey[:0]
	for _, p := range pairs {
		k = binary.AppendVarint(k, int64(p.id))
		k = binary.AppendUvarint(k, uint64(p.vid))
	}
	r.candKey = k
	return k, true
}

// buildRecord computes the claim-version-determined parts of the full-set
// rule for one candidate: G_M (restricted to the horizon span under
// Horizon-PKA), and its D–R paths interned into a bitset. Records are
// content-keyed and instance-scoped, so each distinct candidate is built
// once per instance, not per run or per round.
func (r *Receiver) buildRecord(members []int, combo []claimVer) *candRec {
	rec := &candRec{}
	gm := r.graphOfCombo(members, combo)
	if !gm.HasNode(r.dealer) || !gm.HasNode(r.id) {
		return rec
	}
	if r.horizon > 0 {
		// Horizon-PKA: evaluate the rule on the subgraph of G_M spanned by
		// D–R paths of at most Horizon nodes. The Theorem 4 safety
		// argument is parametric in this graph; fullness still quantifies
		// over ALL its D–R paths, so combination paths longer than the
		// horizon (which relays never deliver) block decisions rather than
		// weaken safety.
		span := gm.BoundedPathSpan(r.dealer, r.id, r.horizon)
		gm = gm.InducedSubgraph(span)
		if !gm.HasNode(r.dealer) || !gm.HasNode(r.id) {
			return rec
		}
	}
	rec.gm = gm
	count := 0
	gm.AllPaths(r.dealer, r.id, nodeset.Empty(), func(p graph.Path) bool {
		rec.hasPath = true
		count++
		if count > maxMemoPaths {
			rec.overflow = true
			return false
		}
		r.keyBuf = appendPathKey(r.keyBuf[:0], p)
		pid, ok := r.paths.lookup(r.keyBuf)
		if !ok {
			pid, ok = r.paths.intern(r.keyBuf, p)
		}
		if !ok {
			rec.overflow = true
			return false
		}
		rec.pathSet.MutateAdd(int(pid))
		return true
	})
	if rec.overflow {
		rec.pathSet = nodeset.Set{}
	}
	return rec
}

// graphOfCombo builds G_M: the union of the claimed views γ(V_M), induced
// on the claimed node set V_M, in one pass over the views' rows.
func (r *Receiver) graphOfCombo(members []int, combo []claimVer) *graph.Graph {
	var vm nodeset.Set
	for _, id := range members {
		vm.MutateAdd(id)
	}
	// Deterministic union order: ascending by node ID.
	views := r.viewsScratch[:0]
	vm.ForEach(func(id int) bool {
		views = append(views, r.comboView(members, combo, id))
		return true
	})
	r.viewsScratch = views
	return graph.UnionInduced(vm, views)
}

func (r *Receiver) comboView(members []int, combo []claimVer, id int) *graph.Graph {
	for i, m := range members {
		if m == id {
			return combo[i].info.View
		}
	}
	return graph.New()
}

// recFull checks fullness against the packed type-1 store: every D–R path
// of the candidate's decision graph must have been received with this
// value. The hot path is one bitset subset test; un-interned paths on
// either side fall back to key comparisons.
func (r *Receiver) recFull(rec *candRec, vs *valState) bool {
	if rec.overflow {
		full := true
		rec.gm.AllPaths(r.dealer, r.id, nodeset.Empty(), func(p graph.Path) bool {
			if !r.pathReceived(vs, p) {
				full = false
				return false
			}
			return true
		})
		return full
	}
	if rec.pathSet.SubsetOf(vs.recv) {
		return true
	}
	if len(vs.over) == 0 {
		return false
	}
	// Rare: a required interned path is missing from the packed store, but
	// may have been received while the intern table was already full and be
	// sitting on the overflow list under its rendered key.
	keys, _ := r.paths.snapshot()
	full := true
	rec.pathSet.ForEach(func(pid int) bool {
		if vs.recv.Contains(pid) {
			return true
		}
		if !overHasStr(vs.over, keys[pid]) {
			full = false
			return false
		}
		return true
	})
	return full
}

// pathReceived reports whether the exact path p was received with vs's
// value, checking both the interned store and the overflow list (a path may
// predate its interning, or never intern at all).
func (r *Receiver) pathReceived(vs *valState, p graph.Path) bool {
	r.keyBuf = appendPathKey(r.keyBuf[:0], p)
	if pid, ok := r.paths.lookup(r.keyBuf); ok && vs.recv.Contains(int(pid)) {
		return true
	}
	return overHas(vs.over, r.keyBuf)
}

func overHas(over []overPath, key []byte) bool {
	for i := range over {
		if over[i].key == string(key) {
			return true
		}
	}
	return false
}

func overHasStr(over []overPath, key string) bool {
	for i := range over {
		if over[i].key == key {
			return true
		}
	}
	return false
}

// coverFor checks Definition 6 on the cutsearch kernel: some cut C of G_M
// between D and R with C ∩ V(γ(B)) ∈ Z_B, where B is the receiver-side
// component and both γ(B) and Z_B are computed from the claims in M. The
// only C1 candidate is ∅, and by the ⊕ membership identity (DESIGN.md §4)
// C ∩ V(γ(B)) ∈ Z_B holds exactly when, for every u ∈ B, C ∩ V(γ(u)) lies
// inside one of u's claimed maximal sets — for claims whose structure
// lives on their view's nodes, which ingestInfo enforces. Minimal cuts
// C = N(B) per receiver-side candidate B suffice (the condition is
// monotone-decreasing in C). The search polls the run's context once per
// side and returns its error.
func (r *Receiver) coverFor(gm *graph.Graph, members []int, combo []claimVer) (bool, error) {
	claims := &candidateClaims{members: members, combo: combo}
	_, found, _, err := cutsearch.Search(r.ctx, cutsearch.Input{
		G: gm, Dealer: r.dealer, Receiver: r.id,
		C1: noCorruption, Views: claims, Fit: claims.maximal, Rule: cutsearch.JointView,
	}, 0)
	return found, err
}

// candidateClaims is a candidate M's claims as the cut kernel reads them:
// every node of G_M is a member, so each has one.
type candidateClaims struct {
	members []int
	combo   []claimVer
	last    int // where the previous lookup ended
}

// claim returns u's claim, scanning from the previous lookup's position:
// the kernel asks for nodes in increasing ID order, several times each,
// so for the (usually sorted) members a lookup is a step or two.
func (c *candidateClaims) claim(u int) *NodeInfo {
	for c.members[c.last] != u {
		c.last = (c.last + 1) % len(c.members)
	}
	return &c.combo[c.last].info
}

// NodesOf returns u's claimed V(γ(u)).
func (c *candidateClaims) NodesOf(u int) nodeset.Set { return c.claim(u).View.Nodes() }

// maximal returns the maximal sets of u's claimed Z_u.
func (c *candidateClaims) maximal(u int) []nodeset.Set { return c.claim(u).Z.Structure.Maximal() }

// noCorruption is the cover's one C1 candidate: Definition 6 has no C1.
var noCorruption = []nodeset.Set{nodeset.Empty()}

// insertSortedInt inserts id into sorted ids if absent.
func insertSortedInt(ids []int, id int) []int {
	i := sort.SearchInts(ids, id)
	if i < len(ids) && ids[i] == id {
		return ids
	}
	ids = append(ids, 0)
	copy(ids[i+1:], ids[i:])
	ids[i] = id
	return ids
}

// forEachSubsetOfSize enumerates size-k subsets of items in a stable order.
func forEachSubsetOfSize(items []int, k int, fn func(subset []int) bool) {
	n := len(items)
	if k > n {
		return
	}
	subset := make([]int, 0, k)
	var rec func(start int) bool
	rec = func(start int) bool {
		if len(subset) == k {
			return fn(subset)
		}
		// Not enough items left to finish the subset.
		for i := start; i <= n-(k-len(subset)); i++ {
			subset = append(subset, items[i])
			cont := rec(i + 1)
			subset = subset[:len(subset)-1]
			if !cont {
				return false
			}
		}
		return true
	}
	rec(0)
}
