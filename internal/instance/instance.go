// Package instance defines the RMT problem instance tuple
// 𝓘 = (G, 𝒵, γ, D, R) from the paper, with validation and the derived
// quantities protocols consume: local structures Z_v and admissible
// corruption sets.
package instance

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"rmt/internal/adversary"
	"rmt/internal/graph"
	"rmt/internal/nodeset"
	"rmt/internal/view"
)

// Instance is one RMT problem instance. Immutable after New; the internal
// caches are safe for concurrent use.
type Instance struct {
	G        *graph.Graph
	Z        adversary.Structure
	Gamma    view.Function
	Dealer   int
	Receiver int

	lazy *lazy // Z_v and the canonical key, built on first use

	derivedMu sync.Mutex
	derived   map[any]any // protocol-attached derived caches (see Derived)
}

// lazy holds the derived state New does not build: the local structures
// Z_v, which only protocol runs read (the cut searches and their verifiers
// read V(γ(v)) and 𝒵 directly), and the canonical key. It lives behind a
// pointer so Instance stays copy-safe and copies share it.
type lazy struct {
	localMu sync.Mutex
	index   *adversary.Index         // 𝒵's node → maximal-set index, built with the first Z_v
	localOf adversary.LocalKnowledge // Z_v, one node at a time
	keyOnce sync.Once
	key     string
	size    int // byte length of the canonical text, set with key

	retained atomic.Int64 // bytes Retain has counted
}

// Validation errors returned by New.
var (
	ErrDealerMissing    = errors.New("instance: dealer is not a node of G")
	ErrReceiverMissing  = errors.New("instance: receiver is not a node of G")
	ErrDealerIsReceiver = errors.New("instance: dealer equals receiver")
	ErrDealerCorruptib  = errors.New("instance: adversary structure can corrupt the dealer")
	ErrReceiverCorrupt  = errors.New("instance: adversary structure can corrupt the receiver")
)

// New validates the tuple and builds an Instance. Following the paper, the
// dealer and the receiver are presumed honest, so structures that allow
// corrupting either are rejected; views must be consistent subgraphs of G.
func New(g *graph.Graph, z adversary.Structure, gamma view.Function, dealer, receiver int) (*Instance, error) {
	return build(nil, g, z, gamma, g.Nodes(), dealer, receiver)
}

// CheckParts runs New's checks that read no view: the dealer and the
// receiver are distinct nodes of g, and every maximal set of z avoids both
// and lies in V(g). It returns New's error for the first that fails. A
// view built from g by a knowledge level always passes New's view checks,
// so for such views CheckParts is every check New can fail.
func CheckParts(g *graph.Graph, z adversary.Structure, dealer, receiver int) error {
	if !g.HasNode(dealer) {
		return ErrDealerMissing
	}
	if !g.HasNode(receiver) {
		return ErrReceiverMissing
	}
	if dealer == receiver {
		return ErrDealerIsReceiver
	}
	// The checks below read 𝒵's ground set, the union of its maximal sets,
	// one maximal set at a time.
	maximal := z.Maximal()
	if slices.ContainsFunc(maximal, func(m nodeset.Set) bool { return m.Contains(dealer) }) {
		return ErrDealerCorruptib
	}
	if slices.ContainsFunc(maximal, func(m nodeset.Set) bool { return m.Contains(receiver) }) {
		return ErrReceiverCorrupt
	}
	if slices.ContainsFunc(maximal, func(m nodeset.Set) bool { return !m.SubsetOf(g.Nodes()) }) {
		return fmt.Errorf("instance: adversary structure mentions non-nodes %v", z.Ground().Minus(g.Nodes()))
	}
	return nil
}

// shell is an Instance and its lazy state in one allocation.
type shell struct {
	in   Instance
	lazy lazy
}

// build is New checking only the views of the members of check for
// consistency with g; Apply passes the views its rebuild built. The
// instance is made in sh, or in a shell of its own when sh is nil.
func build(sh *shell, g *graph.Graph, z adversary.Structure, gamma view.Function, check nodeset.Set, dealer, receiver int) (*Instance, error) {
	if err := CheckParts(g, z, dealer, receiver); err != nil {
		return nil, err
	}
	if err := gamma.ConsistentOn(g, check); err != nil {
		return nil, fmt.Errorf("instance: %w", err)
	}
	if !gamma.Domain().Equal(g.Nodes()) {
		return nil, fmt.Errorf("instance: view function domain %v != V(G) %v", gamma.Domain(), g.Nodes())
	}
	if sh == nil {
		sh = new(shell)
	}
	sh.in = Instance{
		G:        g,
		Z:        z,
		Gamma:    gamma,
		Dealer:   dealer,
		Receiver: receiver,
		lazy:     &sh.lazy,
	}
	return &sh.in, nil
}

// MustNew is New for tests and examples; it panics on invalid tuples.
func MustNew(g *graph.Graph, z adversary.Structure, gamma view.Function, dealer, receiver int) *Instance {
	in, err := New(g, z, gamma, dealer, receiver)
	if err != nil {
		panic(err)
	}
	return in
}

// AdHoc builds an instance in the ad hoc model (γ = neighborhood stars).
func AdHoc(g *graph.Graph, z adversary.Structure, dealer, receiver int) (*Instance, error) {
	return New(g, z, view.AdHoc(g), dealer, receiver)
}

// LocalStructure returns the memoized Z_v for node v, building only Z_v:
// a certification rule that reads one player's structure (the 𝒵-CPA
// receiver's, say) never pays for every node's. The first call builds an
// index from each node to the maximal sets of 𝒵 that contain it, so each
// Z_v reads only the sets that meet V(γ(v)), not all of 𝒵.
func (in *Instance) LocalStructure(v int) adversary.Restricted {
	l := in.lazy
	l.localMu.Lock()
	defer l.localMu.Unlock()
	if r, ok := l.localOf[v]; ok {
		return r
	}
	if !in.Gamma.Domain().Contains(v) {
		return adversary.Identity()
	}
	if l.index == nil {
		l.index = adversary.NewIndex(in.Z)
		l.localOf = make(adversary.LocalKnowledge, in.G.NumNodes())
	}
	r := l.index.RestrictTo(in.Gamma.NodesOf(v))
	l.localOf[v] = r
	return r
}

// LocalKnowledge returns the full node → Z_v map: LocalStructure's memo,
// once it holds every node. Once complete the memo is never written again,
// so callers may read it unlocked; they must not modify it.
func (in *Instance) LocalKnowledge() adversary.LocalKnowledge {
	in.G.Nodes().ForEach(func(v int) bool {
		in.LocalStructure(v)
		return true
	})
	in.lazy.localMu.Lock()
	defer in.lazy.localMu.Unlock()
	return in.lazy.localOf
}

// Derived returns the instance-scoped singleton registered under key,
// building it on first use. It lets protocol packages attach derived warm
// state — sealed claims, prebuilt payloads, decision-subroutine memos — to
// the instance they are derived from, without this package importing them.
// build runs at most once per key; the result is retained for the lifetime
// of the instance and must therefore be safe for concurrent use, like the
// built-in caches.
func (in *Instance) Derived(key any, build func() any) any {
	in.derivedMu.Lock()
	defer in.derivedMu.Unlock()
	if v, ok := in.derived[key]; ok {
		return v
	}
	if in.derived == nil {
		in.derived = make(map[any]any)
	}
	v := build()
	in.derived[key] = v
	return v
}

// Retain adds n bytes to the instance's count of retained warm state.
// Every store attached through Derived whose entries depend on the runs it
// serves — their values, claims and trails, not the instance alone — calls
// it for each entry it keeps, with its estimate of the heap the entry
// holds. Entries live as long as the instance, so the count only grows. A
// server that keeps instances across requests weighs them by it (see
// Retained).
func (in *Instance) Retain(n int) { in.lazy.retained.Add(int64(n)) }

// Retained returns the bytes Retain has counted.
func (in *Instance) Retained() int { return int(in.lazy.retained.Load()) }

// Admissible reports whether t is a corruption set the adversary may choose.
func (in *Instance) Admissible(t nodeset.Set) bool { return in.Z.Contains(t) }

// MaximalCorruptions returns the maximal admissible corruption sets. For
// resilience checks it suffices to consider these (monotonicity: a protocol
// resilient against T is resilient against every T' ⊆ T only needs the
// direction that checking all maximal T covers all T — which the checkers
// rely on because a smaller corruption set gives the adversary strictly
// fewer nodes to silence or subvert).
func (in *Instance) MaximalCorruptions() []nodeset.Set { return in.Z.Maximal() }

// HonestNodes returns V(G) \ t.
func (in *Instance) HonestNodes(t nodeset.Set) nodeset.Set {
	return in.G.Nodes().Minus(t)
}

// N returns the number of players.
func (in *Instance) N() int { return in.G.NumNodes() }

// String gives a compact description for logs and errors.
func (in *Instance) String() string {
	return fmt.Sprintf("Instance(n=%d, m=%d, |Zmax|=%d, D=%d, R=%d)",
		in.G.NumNodes(), in.G.NumEdges(), in.Z.NumMaximal(), in.Dealer, in.Receiver)
}
