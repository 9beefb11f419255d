// Package smt implements one-shot perfectly secure message transmission
// under Dowden's fully generalised adversary (see PAPERS.md): the dealer
// XOR-shares the secret over a family of dealer–receiver paths that avoid
// every corruptible node, routing each share so that every admissible
// listening set misses at least one of them.
//
// The share-routing plan is derived from the instance and the listening
// structure ℒ alone, before any message flows: for each maximal L ∈ ℒ the
// plan picks the canonical (shortest, first in BFS order) D–R path avoiding
// ∪𝒵 ∪ L, and the deduplicated witness paths become the family, one share
// per path. Reliability is unconditional — no share ever touches a node the
// adversary could corrupt, and relays accept a share only from its exact
// path predecessor, so under authenticated channels shares can be neither
// altered nor injected. Privacy is information-theoretic: all shares but
// the last are pads drawn from a seeded SHA-256 counter-mode stream, the
// last is the secret XOR-folded with every pad, and any view missing at
// least one share index is a function of pads alone (or uniform in the
// secret), independent of it.
//
// Assemble succeeds exactly when adversary.Generalised{Z, ℒ}.Feasible holds
// for the instance — the disruption and secrecy cut conditions — and
// returns a protocol.CapsError otherwise; internal/feasibility's boundary
// fixtures pin the agreement on both sides.
package smt

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"strconv"
	"strings"

	"rmt/internal/adversary"
	"rmt/internal/graph"
	"rmt/internal/instance"
	"rmt/internal/network"
	"rmt/internal/nodeset"
	"rmt/internal/protocol"
)

// ShareMsg carries XOR share Idx along its fixed routing path P. Fields are
// exported so the wire engine's codec can re-encode it; the canonical Key
// derives entirely from them, so a decoded copy is indistinguishable from
// the original.
type ShareMsg struct {
	// Idx is the share's index in the plan's path family.
	Idx int
	// P is the full routing path, dealer to receiver. Relays and the
	// receiver validate it against their own plan and accept the share only
	// from its exact predecessor on P.
	P graph.Path
	// X is the hex-encoded share bytes.
	X string
}

// Key implements network.Payload.
func (m ShareMsg) Key() string {
	hops := make([]string, len(m.P))
	for i, v := range m.P {
		hops[i] = strconv.Itoa(v)
	}
	return "smt:share:" + strconv.Itoa(m.Idx) + ":" + strings.Join(hops, "-") + ":" + m.X
}

// BitSize implements network.Payload. As with the other wire-codable
// payloads it is derived from the canonical encoding, so metrics charge for
// exactly what crosses the wire: eight bits per byte of Key, whose length
// is counted without rendering it.
func (m ShareMsg) BitSize() int {
	n := len("smt:share:") + decimalLen(m.Idx) + len(":") + len(":") + len(m.X)
	for i, v := range m.P {
		if i > 0 {
			n += len("-")
		}
		n += decimalLen(v)
	}
	return 8 * n
}

// decimalLen returns len(strconv.Itoa(v)).
func decimalLen(v int) int {
	n, u := 1, uint(v)
	if v < 0 {
		n, u = 2, -u
	}
	for ; u >= 10; u /= 10 {
		n++
	}
	return n
}

// Plan is the dealer's share-routing plan: the canonical witness-path
// family, one XOR share per path, plus the per-listening-set witness
// indices the privacy oracle audits against.
type Plan struct {
	// Paths is the deduplicated witness family in canonical order. Share i
	// travels Paths[i]; the last index is the dependent share (secret XOR
	// pads), all others are pure pads.
	Paths []graph.Path
	// Witness maps each maximal listening set of ℒ (in antichain order) to
	// the index of the path it cannot hear: Paths[Witness[j]] avoids the
	// j-th maximal set entirely.
	Witness []int
}

// Dependent returns the index of the secret-dependent share: the last one.
func (p Plan) Dependent() int { return len(p.Paths) - 1 }

// NewPlan computes the share-routing plan for the instance under the given
// listening structure, or a protocol.CapsError when the disruption or
// secrecy cut conditions make the pairing infeasible. The plan is a pure
// function of (instance, ℒ): every player recomputes it and gets the same
// family, which is what makes exact-path validation possible.
func NewPlan(in *instance.Instance, listen adversary.Structure) (Plan, error) {
	ground := in.Z.Ground()
	if ground.Contains(in.Dealer) || ground.Contains(in.Receiver) {
		return Plan{}, protocol.Capsf(protocol.SMT,
			"corruption structure %v may corrupt the dealer or receiver", in.Z)
	}
	var plan Plan
	index := map[string]int{}
	for _, l := range listen.Maximal() {
		avoid := ground.Union(l)
		var p graph.Path
		if !avoid.Contains(in.Dealer) && !avoid.Contains(in.Receiver) {
			p = in.G.ShortestPath(in.Dealer, in.Receiver, avoid)
		}
		if p == nil {
			return Plan{}, protocol.Capsf(protocol.SMT,
				"no D–R path escapes corruption ground %v plus listening set %v (secrecy cut)", ground, l)
		}
		key := p.Set().Key()
		idx, ok := index[key]
		if !ok {
			idx = len(plan.Paths)
			index[key] = idx
			plan.Paths = append(plan.Paths, p)
		}
		plan.Witness = append(plan.Witness, idx)
	}
	return plan, nil
}

// pad derives share pad idx as a SHA-256 counter-mode stream keyed by
// (seed, idx) — deterministic under the repo's seeded-determinism contract,
// uniform-looking to any observer who does not hold the missing shares.
func pad(seed int64, idx, n int) []byte {
	out := make([]byte, 0, (n+sha256.Size-1)/sha256.Size*sha256.Size)
	var msg [20]byte
	binary.BigEndian.PutUint64(msg[0:8], uint64(seed))
	binary.BigEndian.PutUint32(msg[8:12], uint32(idx))
	for ctr := uint64(0); len(out) < n; ctr++ {
		binary.BigEndian.PutUint64(msg[12:20], ctr)
		block := sha256.Sum256(msg[:])
		out = append(out, block[:]...)
	}
	return out[:n]
}

// Shares splits secret into k XOR shares: shares 0..k-2 are seeded pads,
// share k-1 folds the secret with every pad. With k = 1 the single share is
// the secret itself — privacy then rests entirely on the path avoiding
// every listening set.
func Shares(secret []byte, k int, seed int64) [][]byte {
	shares := make([][]byte, k)
	last := make([]byte, len(secret))
	copy(last, secret)
	for i := 0; i < k-1; i++ {
		p := pad(seed, i, len(secret))
		shares[i] = p
		for j := range last {
			last[j] ^= p[j]
		}
	}
	shares[k-1] = last
	return shares
}

// Reconstruct XORs the shares back into the secret. All k shares of equal
// length are required; it is the inverse of Shares by construction.
func Reconstruct(shares [][]byte) []byte {
	if len(shares) == 0 {
		return nil
	}
	out := make([]byte, len(shares[0]))
	for _, s := range shares {
		for j := range out {
			out[j] ^= s[j]
		}
	}
	return out
}

// Dealer sends each share down its path's first hop at init, then halts.
type Dealer struct {
	msgs []ShareMsg
}

// NewDealer builds the dealer for a plan: share i of the secret, addressed
// along Paths[i].
func NewDealer(plan Plan, xD network.Value, seed int64) *Dealer {
	shares := Shares([]byte(xD), len(plan.Paths), seed)
	msgs := make([]ShareMsg, len(plan.Paths))
	for i, p := range plan.Paths {
		msgs[i] = ShareMsg{Idx: i, P: p, X: hex.EncodeToString(shares[i])}
	}
	return &Dealer{msgs: msgs}
}

// Init implements network.Process: the whole protocol is one volley.
func (d *Dealer) Init(out network.Outbox) {
	for _, m := range d.msgs {
		out(m.P[1], m)
	}
}

// Round implements network.Process.
func (d *Dealer) Round(int, []network.Message, network.Outbox) bool { return false }

// Decision implements network.Process.
func (d *Dealer) Decision() (network.Value, bool) { return "", false }

// Relay forwards each share one hop along its exact planned path, once.
// Anything else — unknown payloads, shares with a foreign path, shares not
// arriving from the path predecessor — is dropped on the floor.
type Relay struct {
	id        int
	plan      Plan
	forwarded []bool
}

// NewRelay builds the relay process for node id.
func NewRelay(plan Plan, id int) *Relay {
	return &Relay{id: id, plan: plan, forwarded: make([]bool, len(plan.Paths))}
}

// Init implements network.Process.
func (r *Relay) Init(network.Outbox) {}

// Round implements network.Process.
func (r *Relay) Round(_ int, inbox []network.Message, out network.Outbox) bool {
	for _, m := range inbox {
		sh, ok := m.Payload.(ShareMsg)
		if !ok || sh.Idx < 0 || sh.Idx >= len(r.plan.Paths) || r.forwarded[sh.Idx] {
			continue
		}
		p := r.plan.Paths[sh.Idx]
		pos := hopIndex(p, r.id)
		if pos <= 0 || pos >= len(p)-1 || !p.Equal(sh.P) || m.From != p[pos-1] {
			continue
		}
		r.forwarded[sh.Idx] = true
		out(p[pos+1], sh)
	}
	return true
}

// Decision implements network.Process.
func (r *Relay) Decision() (network.Value, bool) { return "", false }

// hopIndex returns v's position on p, or -1.
func hopIndex(p graph.Path, v int) int {
	for i, u := range p {
		if u == v {
			return i
		}
	}
	return -1
}

// Receiver collects one valid share per path and decides the XOR of all of
// them. Shares are validated exactly like at relays: correct path, correct
// predecessor, first arrival wins (under the avoidance routing the first
// arrival is the only one).
type Receiver struct {
	id      int
	plan    Plan
	shares  [][]byte
	have    int
	decided bool
	value   network.Value
}

// NewReceiver builds the receiver process for node id.
func NewReceiver(plan Plan, id int) *Receiver {
	return &Receiver{id: id, plan: plan, shares: make([][]byte, len(plan.Paths))}
}

// Init implements network.Process.
func (r *Receiver) Init(network.Outbox) {}

// Round implements network.Process.
func (r *Receiver) Round(_ int, inbox []network.Message, _ network.Outbox) bool {
	if r.decided {
		return false
	}
	for _, m := range inbox {
		sh, ok := m.Payload.(ShareMsg)
		if !ok || sh.Idx < 0 || sh.Idx >= len(r.plan.Paths) || r.shares[sh.Idx] != nil {
			continue
		}
		p := r.plan.Paths[sh.Idx]
		if p.Tail() != r.id || !p.Equal(sh.P) || m.From != p[len(p)-2] {
			continue
		}
		raw, err := hex.DecodeString(sh.X)
		if err != nil {
			continue
		}
		r.shares[sh.Idx] = raw
		r.have++
	}
	if r.have == len(r.plan.Paths) {
		r.decided = true
		r.value = network.Value(Reconstruct(r.shares))
		return false
	}
	return true
}

// Decision implements network.Process.
func (r *Receiver) Decision() (network.Value, bool) { return r.value, r.decided }

// NewProcesses assembles the full process map for a planned run: the SMT
// dealer and receiver, plan-aware relays everywhere else, with the corrupt
// overlay applied to unprotected nodes.
func NewProcesses(in *instance.Instance, plan Plan, xD network.Value, seed int64, corrupt map[int]network.Process) map[int]network.Process {
	return protocol.Build(in.G, nodeset.Of(in.Dealer, in.Receiver), corrupt, func(v int) network.Process {
		switch v {
		case in.Dealer:
			return NewDealer(plan, xD, seed)
		case in.Receiver:
			return NewReceiver(plan, v)
		default:
			return NewRelay(plan, v)
		}
	})
}

// Options is this protocol's view of the unified option set: Listen is the
// adversary's listening structure, Seed keys the pad stream.
type Options = protocol.Options

// Proto is the registry entry for the SMT protocol.
type Proto struct{}

// Name implements protocol.Protocol.
func (Proto) Name() string { return protocol.SMT }

// Caps implements protocol.Protocol: SMT routes exclusively over
// corruption-free paths, so generic harnesses must leave part of the
// interior honest.
func (Proto) Caps() protocol.Caps { return protocol.Caps{HonestPaths: true} }

// Assemble implements protocol.Protocol. It fails with a
// protocol.CapsError exactly when the Dowden cut conditions make the
// (instance, listening structure) pairing infeasible.
//
// Proto deliberately does not implement protocol.Feasibility: solvability
// depends on the listening structure, which the registry-level Solvable
// hook cannot see, so generic harnesses would evaluate the wrong predicate.
// The parameterized predicate lives in internal/feasibility.
func (Proto) Assemble(in *instance.Instance, xD network.Value, opts protocol.Options) (map[int]network.Process, error) {
	plan, err := NewPlan(in, opts.Listen)
	if err != nil {
		return nil, err
	}
	return NewProcesses(in, plan, xD, opts.Seed, opts.Corrupt), nil
}

func init() { protocol.Register(Proto{}) }

// Run executes SMT on the instance with dealer value (secret) xD. A non-nil
// corrupt map takes precedence over opts.Corrupt.
func Run(in *instance.Instance, xD network.Value, corrupt map[int]network.Process, opts Options) (*network.Result, error) {
	if corrupt != nil {
		opts.Corrupt = corrupt
	}
	return protocol.Run(Proto{}, in, xD, opts)
}
