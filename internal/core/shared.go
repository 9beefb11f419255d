package core

import (
	"sync"
	"sync/atomic"

	"rmt/internal/graph"
	"rmt/internal/instance"
	"rmt/internal/network"
	"rmt/internal/nodeset"
	"rmt/internal/protocol"
)

// Capacity caps for the per-instance warm stores. All of them only bound
// memory against adversaries that spray fresh claim versions or trails;
// overflow never changes decisions, it only degrades to evaluation on
// records that are not stored and to streamed fullness checks, which the
// record-free differential tests pin. Every entry a store keeps is also
// charged to the instance (instance.Retain) by the estimates below, so a
// server that keeps instances across requests can bound them in bytes.
const (
	// maxInternPaths caps the path intern table (received trails plus
	// enumerated G_M paths). Paths beyond the cap fall back to per-run
	// string-keyed overflow lists.
	maxInternPaths = 1 << 15
	// maxInternVers caps the claim-version intern table. Candidates naming
	// uninterned versions are evaluated on a record that is not stored.
	maxInternVers = 1 << 12
	// maxRelayCache caps each relay's rebuilt-payload cache.
	maxRelayCache = 1 << 14
	// maxDealerVals caps the dealer's prebuilt Init payloads (one per
	// distinct dealer value the instance has been run with).
	maxDealerVals = 64
	// maxDenseID bounds the node IDs eligible for bitset-packed bookkeeping;
	// forged claims or trails naming IDs at or beyond it (or negative ones)
	// take the unpacked fallback paths so a single hostile message cannot
	// force a gigantic bitset allocation.
	maxDenseID = 1 << 16
)

// pathInterner assigns dense int32 IDs to D–R path keys, so fullness checks
// compare bitsets instead of probing string maps. It is instance-scoped and
// append-only: an ID, once assigned, always denotes the same path, which is
// what lets candidate records carry interned path sets across runs.
type pathInterner struct {
	owner *instance.Instance // charged for each path interned; nil charges nothing

	mu    sync.RWMutex
	ids   map[string]int32
	keys  []string      // ID → rendered path key
	nodes []nodeset.Set // ID → node set of the path
}

// lookup resolves a rendered path key without interning it. The byte-slice
// key makes hit probes allocation-free.
func (pi *pathInterner) lookup(k []byte) (int32, bool) {
	pi.mu.RLock()
	id, ok := pi.ids[string(k)]
	pi.mu.RUnlock()
	return id, ok
}

// intern assigns an ID to the path with rendered key k, or reports false
// when the table is at capacity or the path names IDs outside the dense
// range.
func (pi *pathInterner) intern(k []byte, p graph.Path) (int32, bool) {
	ns, ok := pathNodeSet(p)
	if !ok {
		return 0, false
	}
	pi.mu.Lock()
	defer pi.mu.Unlock()
	if id, ok := pi.ids[string(k)]; ok {
		return id, true
	}
	if len(pi.keys) >= maxInternPaths {
		return 0, false
	}
	if pi.ids == nil {
		pi.ids = make(map[string]int32)
	}
	key := string(k)
	id := int32(len(pi.keys))
	pi.ids[key] = id
	pi.keys = append(pi.keys, key)
	pi.nodes = append(pi.nodes, ns)
	retain(pi.owner, protocol.EntryBytes+len(key)+setBytes(ns))
	return id, true
}

// snapshot returns stable views of the keys and node-set tables. Existing
// entries are never rewritten, so reads through a snapshot are safe while
// other runs keep interning.
func (pi *pathInterner) snapshot() (keys []string, nodes []nodeset.Set) {
	pi.mu.RLock()
	keys, nodes = pi.keys, pi.nodes
	pi.mu.RUnlock()
	return keys, nodes
}

// pathNodeSet returns the node set of p, or false when p names IDs outside
// the dense range (see maxDenseID).
func pathNodeSet(p graph.Path) (nodeset.Set, bool) {
	var s nodeset.Set
	for _, v := range p {
		if v < 0 || v >= maxDenseID {
			return nodeset.Set{}, false
		}
	}
	for _, v := range p {
		s.MutateAdd(v)
	}
	return s, true
}

// verInterner assigns stable int32 IDs to claim version keys. IDs are
// instance-scoped, so candidate memo keys built from them mean the same
// claim content in every run.
type verInterner struct {
	owner *instance.Instance // charged for each version interned; nil charges nothing

	mu  sync.RWMutex
	ids map[string]int32
}

// intern returns the ID for version key k, assigning one if the table has
// room; ok=false means the table is at capacity and candidates naming this
// version cannot be keyed.
func (vi *verInterner) intern(k string) (int32, bool) {
	vi.mu.RLock()
	id, ok := vi.ids[k]
	vi.mu.RUnlock()
	if ok {
		return id, true
	}
	vi.mu.Lock()
	defer vi.mu.Unlock()
	if id, ok := vi.ids[k]; ok {
		return id, true
	}
	if len(vi.ids) >= maxInternVers {
		return 0, false
	}
	if vi.ids == nil {
		vi.ids = make(map[string]int32)
	}
	id = int32(len(vi.ids))
	vi.ids[k] = id
	retain(vi.owner, protocol.EntryBytes+len(k))
	return id, true
}

// candRec is one memoized candidate message set: the parts of the full-set
// rule determined by the exact claim versions alone. Fullness — membership
// of each G_M path in the growing type-1 store — is the only per-call part.
// Records live on the instance and are shared across runs; the claim-version
// memo key guarantees any run probing the record evaluated the same G_M.
type candRec struct {
	gm       *graph.Graph // decision graph; nil if D or R missing
	pathSet  nodeset.Set  // interned IDs of all D–R paths of gm
	hasPath  bool
	overflow bool         // paths exceeded caps: re-stream enumeration
	cover    atomic.Int32 // 0 = unknown, 1 = has cover, 2 = no cover
}

// candStore maps packed claim-version keys to candidate records.
type candStore struct {
	owner *instance.Instance // charged for each record stored; nil charges nothing

	mu   sync.RWMutex
	recs map[string]*candRec
}

func (cs *candStore) get(k []byte) *candRec {
	cs.mu.RLock()
	rec := cs.recs[string(k)]
	cs.mu.RUnlock()
	return rec
}

// put inserts rec under k and returns the record now stored there (an
// earlier concurrent insert wins, so all runs share one record). It returns
// nil when the store is at capacity and the key is new.
func (cs *candStore) put(k []byte, rec *candRec) *candRec {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if old, ok := cs.recs[string(k)]; ok {
		return old
	}
	if len(cs.recs) >= maxMemoEntries {
		return nil
	}
	if cs.recs == nil {
		cs.recs = make(map[string]*candRec)
	}
	cs.recs[string(k)] = rec
	n := protocol.EntryBytes + len(k) + setBytes(rec.pathSet)
	if rec.gm != nil {
		n += graphBytes(rec.gm)
	}
	retain(cs.owner, n)
	return rec
}

func (cs *candStore) len() int {
	cs.mu.RLock()
	defer cs.mu.RUnlock()
	return len(cs.recs)
}

// pkaShared is the per-instance warm store for RMT-PKA runs: every quantity
// that is a pure function of the instance — sealed claims, prebuilt Init
// payloads, relay processes with their rebuild caches, the receiver's intern
// tables and candidate records — is built once here and shared by all runs
// on the instance (including concurrent ones; everything is lock-protected
// or append-only).
type pkaShared struct {
	infos []NodeInfo // sealed honest claims, indexed by node ID

	dealerInfoMsg network.Payload                                // dealer's sealed Init type-2 payload
	dealerVals    protocol.Cache[network.Value, network.Payload] // Init type-1 payload per x_D
	relays        protocol.Cache[relayKey, *Relay]

	paths pathInterner
	vers  verInterner

	// stores holds the candidate records per horizon: the horizon changes
	// G_M (the decision graph is sliced to the bounded path span), so
	// records are segregated per horizon value.
	stores protocol.Cache[int, *candStore]
}

// relayKey names a shared relay: horizon-bounded relays drop trails the
// unbounded ones forward, so each horizon has its own.
type relayKey struct{ horizon, node int }

// sharedKeyT keys the pkaShared singleton in instance.Derived.
type sharedKeyT struct{}

// sharedOf returns the instance's warm store, building it on first use.
func sharedOf(in *instance.Instance) *pkaShared {
	return in.Derived(sharedKeyT{}, func() any { return newPKAShared(in) }).(*pkaShared)
}

// newPKAShared builds the instance's warm store. The sealed claims and the
// relays are functions of the instance alone, so their memory follows the
// instance's size and is not charged; every store whose entries the runs
// choose — values, forged claims, trails, claim combinations — charges
// each entry it keeps.
func newPKAShared(in *instance.Instance) *pkaShared {
	sh := &pkaShared{infos: make([]NodeInfo, in.G.MaxID()+1)}
	in.G.Nodes().ForEach(func(v int) bool {
		sh.infos[v] = TrueInfo(in, v)
		return true
	})
	sh.dealerInfoMsg = NewInfoMsg(sh.infos[in.Dealer], graph.Path{in.Dealer})
	sh.dealerVals.Max = maxDealerVals
	sh.dealerVals.Charge = func(_ network.Value, p network.Payload) {
		in.Retain(protocol.EntryBytes + sh.payloadBytes(p))
	}
	sh.paths.owner, sh.vers.owner = in, in
	return sh
}

// relay returns the shared relay process for node v under the given
// horizon. Relays are stateless per round (their rebuild cache is locked),
// so one process instance serves every run on the instance.
func (sh *pkaShared) relay(in *instance.Instance, v, horizon int) *Relay {
	return sh.relays.Get(relayKey{horizon, v}, func() *Relay {
		rel := NewRelayAt(v, in.G.Neighbors(v), sh.infos[v])
		rel.horizon = horizon
		rel.cache = &protocol.Cache[string, network.Payload]{
			Max: maxRelayCache,
			Charge: func(k string, p network.Payload) {
				in.Retain(protocol.EntryBytes + len(k) + sh.payloadBytes(p))
			},
		}
		return rel
	})
}

// payloadBytes estimates the heap a stored RMT-PKA payload keeps beyond
// protocol.EntryBytes: its key, its trail, a value's text, and a claim
// other than its node's sealed honest one (a forged claim, which the
// payload keeps alive; honest claims live in infos either way).
func (sh *pkaShared) payloadBytes(p network.Payload) int {
	switch m := p.(type) {
	case ValueMsg:
		return len(m.key) + len(m.X) + 8*len(m.P)
	case InfoMsg:
		n := len(m.key) + 8*len(m.P)
		if v := m.Info.Node; v < 0 || v >= len(sh.infos) || sh.infos[v].key != m.Info.key {
			n += infoBytes(m.Info)
		}
		return n
	}
	return 0
}

// infoBytes estimates the heap of a claim: its version key, view and local
// structure.
func infoBytes(ni NodeInfo) int {
	n := len(ni.key) + setBytes(ni.Z.Domain)
	if ni.View != nil {
		n += graphBytes(ni.View)
	}
	for _, m := range ni.Z.Structure.Maximal() {
		n += 24 + setBytes(m)
	}
	return n
}

// graphBytes estimates the heap of a graph: the node set, and per node a
// row header and its adjacency set.
func graphBytes(g *graph.Graph) int {
	n := 64 + setBytes(g.Nodes())
	g.Nodes().ForEach(func(v int) bool {
		n += 32 + setBytes(g.Neighbors(v))
		return true
	})
	return n
}

// setBytes estimates the heap of a node set's words.
func setBytes(s nodeset.Set) int { return 8 * s.Width() }

// retain charges n bytes to in; a store built without an instance, as in
// tests, charges nothing.
func retain(in *instance.Instance, n int) {
	if in != nil {
		in.Retain(n)
	}
}
