package feasibility

import (
	"fmt"

	"rmt/internal/adversary"
	"rmt/internal/gen"
	"rmt/internal/instance"
	"rmt/internal/nodeset"
)

// MBRBFeasible is the message-adversary solvability bound for Byzantine
// Reliable Broadcast on a complete n-player network with at most t Byzantine
// players and a per-broadcast suppression budget of d: MBRB is solvable iff
// n > 3t + 2d (Albouy–Frey–Raynal–Taïani; see PAPERS.md). At d = 0 it
// degenerates to Bracha's classical n > 3t.
func MBRBFeasible(n, t, d int) bool { return n > 3*t+2*d }

// MBRBVerdict is the instance-level evaluation of the bound; rmtd serves it
// as the /v1/feasibility "mbrb" field.
type MBRBVerdict struct {
	// N, T, D are the parameters the verdict was computed from: the player
	// count, the adversary structure's largest corruption set, and the
	// suppression budget under evaluation.
	N int `json:"n"`
	T int `json:"t"`
	D int `json:"d"`
	// Feasible is MBRBFeasible(N, T, D).
	Feasible bool `json:"feasible"`
}

// MBRBVerdictFor evaluates the n > 3t + 2d bound on an instance. The bound
// counts processes, not paths, so it is only meaningful — and only tight —
// on complete networks; sparser instances are rejected. General adversary
// structures are conservatively rounded up to the size of their largest
// corruption set, matching the quorum arithmetic of internal/mbrb.
func MBRBVerdictFor(in *instance.Instance, d int) (MBRBVerdict, error) {
	if d < 0 {
		return MBRBVerdict{}, fmt.Errorf("feasibility: negative suppression budget %d", d)
	}
	n := in.N()
	incomplete := false
	in.G.Nodes().ForEach(func(v int) bool {
		if in.G.Neighbors(v).Len() != n-1 {
			incomplete = true
			return false
		}
		return true
	})
	if incomplete {
		return MBRBVerdict{}, fmt.Errorf("feasibility: the n > 3t + 2d bound needs a complete network (n=%d)", n)
	}
	t := 0
	for _, m := range in.MaximalCorruptions() {
		if s := m.Len(); s > t {
			t = s
		}
	}
	return MBRBVerdict{N: n, T: t, D: d, Feasible: MBRBFeasible(n, t, d)}, nil
}

// MBRBBoundary is one point of the n = 3t + 2d boundary battery: a pair of
// complete-network instances one node apart that straddle the bound. The
// just-feasible side has n = 3t + 2d + 1 players (the smallest n the
// predicate accepts); the just-infeasible side removes one player. The
// operational worst case the pair is checked against is Corrupt (t silent
// Byzantine players) plus Victims (d eclipse-suppressed correct players):
// on the feasible side every correct non-victim delivers, one player fewer
// and nobody does.
type MBRBBoundary struct {
	// Name is the pair's registry key.
	Name string
	// Doc says why the flip happens at this (t, d) point.
	Doc string
	// T and D are the adversary parameters.
	T, D int
	// Corrupt is the corruption set for the operational check: {1, …, T}.
	Corrupt nodeset.Set
	// Victims are the eclipse victims: the D interior nodes after Corrupt.
	Victims []int
}

// FeasibleN and InfeasibleN are the two player counts of the pair.
func (b MBRBBoundary) FeasibleN() int   { return 3*b.T + 2*b.D + 1 }
func (b MBRBBoundary) InfeasibleN() int { return 3*b.T + 2*b.D }

// Feasible builds the just-feasible instance: K_n with n = 3t + 2d + 1,
// dealer 0, receiver n−1, and the global t-threshold structure over the
// interior.
func (b MBRBBoundary) Feasible() (*instance.Instance, error) {
	return b.build(b.FeasibleN())
}

// Infeasible builds the just-infeasible instance: one player fewer.
func (b MBRBBoundary) Infeasible() (*instance.Instance, error) {
	return b.build(b.InfeasibleN())
}

func (b MBRBBoundary) build(n int) (*instance.Instance, error) {
	if n < 2 {
		return nil, fmt.Errorf("feasibility: %s: K_%d has no dealer–receiver pair", b.Name, n)
	}
	g := gen.Complete(n)
	interior := g.Nodes().Remove(0).Remove(n - 1)
	return instance.AdHoc(g, adversary.GlobalThreshold(interior, b.T), 0, n-1)
}

// MBRB boundary pair names.
const (
	MBRBByzantineOnly   = "mbrb-byzantine-only"
	MBRBSuppressionOnly = "mbrb-suppression-only"
	MBRBMixed           = "mbrb-mixed"
	MBRBDoubleByzantine = "mbrb-double-byzantine"
	MBRBDoubleBudget    = "mbrb-double-budget"
)

// MBRBBoundaries returns the boundary battery: for each pair, the predicate
// flips between FeasibleN and InfeasibleN, and the operational MBRB runs
// agree on both sides (asserted by this package's tests).
func MBRBBoundaries() []MBRBBoundary {
	mk := func(name, doc string, t, d int) MBRBBoundary {
		corrupt := nodeset.Empty()
		for c := 1; c <= t; c++ {
			corrupt = corrupt.Add(c)
		}
		victims := make([]int, 0, d)
		for v := t + 1; v <= t+d; v++ {
			victims = append(victims, v)
		}
		return MBRBBoundary{Name: name, Doc: doc, T: t, D: d, Corrupt: corrupt, Victims: victims}
	}
	return []MBRBBoundary{
		mk(MBRBByzantineOnly, "d=0 degenerates to Bracha's n > 3t: K4 tolerates one "+
			"silent player, K3 starves the echo quorum 2t+1.", 1, 0),
		mk(MBRBSuppressionOnly, "t=0 isolates the message adversary: K3 survives one "+
			"eclipsed player, in K2 the suppressed copy is the whole channel.", 0, 1),
		mk(MBRBMixed, "the canonical mixed point: K6 gives the 4 correct non-victims "+
			"exactly qE = qD = 2t+d+1 = 4 votes; K5 leaves 3 < 4.", 1, 1),
		mk(MBRBDoubleByzantine, "t=2, d=1: the echo quorum ⌊(n+t)/2⌋+1 = 6 is met by "+
			"the 6 correct non-victims of K9 and missed by the 5 of K8.", 2, 1),
		mk(MBRBDoubleBudget, "t=1, d=2: two eclipsed players cost two quorum votes "+
			"each round; K8 still seats 5 = qE voters, K7 only 4.", 1, 2),
	}
}
