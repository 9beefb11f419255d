package protocol

import (
	"rmt/internal/instance"
	"rmt/internal/network"
	"rmt/internal/nodeset"
)

// silentProcess blocks everything: it never sends, never relays and never
// decides, but keeps consuming traffic so the engine never observes an
// artificial early halt from its side.
type silentProcess struct{}

// Init implements network.Process.
func (silentProcess) Init(network.Outbox) {}

// Round implements network.Process.
func (silentProcess) Round(int, []network.Message, network.Outbox) bool { return true }

// Decision implements network.Process.
func (silentProcess) Decision() (network.Value, bool) { return "", false }

// Silence builds the corrupt overlay that silences every node of t — the
// liveness-worst-case adversary for safe protocols (DESIGN.md §5), which
// Resilient simulates on every maximal corruption set. It lives in this
// package rather than internal/byzantine so that protocol packages need not
// depend on the attack library, which itself builds on the protocols'
// message vocabularies.
func Silence(t nodeset.Set) map[int]network.Process {
	m := make(map[int]network.Process, t.Len())
	t.ForEach(func(v int) bool {
		m[v] = silentProcess{}
		return true
	})
	return m
}

// Resilient reports whether p achieves RMT on in against every admissible
// corruption: it silences each maximal corruption set in turn and asks
// whether the receiver still decides. Silence is the liveness-worst
// behavior of a safe protocol (DESIGN.md §5), and monotonicity makes the
// maximal sets sufficient.
func Resilient(p Protocol, in *instance.Instance) (bool, error) {
	for _, t := range in.MaximalCorruptions() {
		res, err := Run(p, in, "1", Options{Corrupt: Silence(t)})
		if err != nil {
			return false, err
		}
		if _, ok := res.DecisionOf(in.Receiver); !ok {
			return false, nil
		}
	}
	return true, nil
}
