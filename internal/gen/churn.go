package gen

import (
	"fmt"

	"rmt/internal/graph"
	"rmt/internal/instance"
	"rmt/internal/nodeset"
	"rmt/internal/view"
)

// This file is the churn half of the generator package: applying topology
// deltas at a knowledge level, and drawing random-but-valid delta chains
// from a seeded stream for the differential and fuzz harnesses.

// ApplyDelta applies a topology delta to an instance whose views were
// built at knowledge level k, rebuilding γ from the edited graph at the
// same level. At ad hoc only the stars of the nodes whose neighborhood
// changed are built and checked; every other star is carried over from
// in, the same pointer, and equals what a full rebuild makes (DESIGN
// §31). The other levels build and check every view.
func ApplyDelta(in *instance.Instance, d instance.Delta, k Knowledge) (*instance.Instance, error) {
	return instance.Apply(in, d, k.rebuild)
}

// ApplyDeltaChain folds ApplyDelta over a delta sequence.
func ApplyDeltaChain(in *instance.Instance, deltas []instance.Delta, k Knowledge) (*instance.Instance, error) {
	return instance.ApplyChain(in, deltas, k.rebuild)
}

// rebuild is k's instance.Rebuild.
func (k Knowledge) rebuild(g *graph.Graph, prev view.Function, changed nodeset.Set) (view.Function, nodeset.Set) {
	if k == AdHoc {
		return view.AdHocAfter(g, prev, changed)
	}
	return k.View(g), g.Nodes()
}

// churnRand is the splitmix64 stream used by RandomDeltaChain — the same
// finalizer the seeded schedulers and eval.TrialSeed use, so churn
// schedules plug into the existing per-trial seed derivation: equal seeds
// give identical chains, distinct seeds decorrelated ones.
type churnRand struct{ x uint64 }

func (s *churnRand) next() uint64 {
	s.x += 0x9e3779b97f4a7c15
	z := s.x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
func (s *churnRand) intn(n int) int { return int(s.next() % uint64(n)) }

// RandomDeltaChain draws `steps` single-edit deltas valid against the
// instance, applying each before drawing the next so the whole chain
// applies cleanly via ApplyDeltaChain. Edit mix (approximate): half edge
// removals, a third edge additions (chords between existing nodes), the
// rest node churn — attach a fresh node to a random survivor, or drop a
// non-terminal node. Terminals are never removed and the dealer/receiver
// pair never merges, so every prefix of the chain is a valid instance;
// feasibility is free to flip along the way, which is the point.
func RandomDeltaChain(in *instance.Instance, k Knowledge, steps int, seed int64) ([]instance.Delta, error) {
	rng := &churnRand{x: uint64(seed)}
	deltas := make([]instance.Delta, 0, steps)
	cur := in
	nextID := cur.G.MaxID() + 1
	for len(deltas) < steps {
		d, ok := drawDelta(cur, rng, &nextID)
		if !ok {
			return nil, fmt.Errorf("gen: no valid delta exists for %v", cur)
		}
		next, err := ApplyDelta(cur, d, k)
		if err != nil {
			// Drawing only proposes structurally valid edits, so a rebuild
			// failure is a bug in this generator, not bad luck.
			return nil, fmt.Errorf("gen: generated delta %v does not apply: %w", d, err)
		}
		deltas = append(deltas, d)
		cur = next
	}
	return deltas, nil
}

// drawDelta proposes one valid single-edit delta, retrying across edit
// kinds when the drawn kind has no legal move on the current graph.
func drawDelta(in *instance.Instance, rng *churnRand, nextID *int) (instance.Delta, bool) {
	for attempt := 0; attempt < 32; attempt++ {
		switch rng.intn(6) {
		case 0, 1, 2: // remove a random edge
			edges := in.G.Edges()
			if len(edges) == 0 {
				continue
			}
			e := edges[rng.intn(len(edges))]
			return instance.Delta{RemoveEdges: [][2]int{e}}, true
		case 3, 4: // add a chord between existing non-adjacent nodes
			ids := in.G.SortedIDs()
			if len(ids) < 2 {
				continue
			}
			u := ids[rng.intn(len(ids))]
			v := ids[rng.intn(len(ids))]
			if u == v || in.G.HasEdge(u, v) {
				continue
			}
			// Never wire the dealer directly to the receiver: the fixtures'
			// interesting verdicts all live strictly between the terminals,
			// and a D–R edge makes every remaining step trivially solvable.
			if (u == in.Dealer && v == in.Receiver) || (u == in.Receiver && v == in.Dealer) {
				continue
			}
			return instance.Delta{AddEdges: [][2]int{{u, v}}}, true
		case 5: // node churn: attach a fresh relay, or drop one added earlier
			if rng.intn(2) == 0 {
				ids := in.G.SortedIDs()
				anchor := ids[rng.intn(len(ids))]
				id := *nextID
				*nextID++
				return instance.Delta{AddNodes: []int{id}, AddEdges: [][2]int{{anchor, id}}}, true
			}
			var victims []int
			in.G.Nodes().ForEach(func(v int) bool {
				if v != in.Dealer && v != in.Receiver {
					victims = append(victims, v)
				}
				return true
			})
			if len(victims) == 0 {
				continue
			}
			return instance.Delta{RemoveNodes: []int{victims[rng.intn(len(victims))]}}, true
		}
	}
	// Retries exhausted (tiny graphs can starve the edge moves): fall back
	// to the move that is always legal — attach a fresh relay.
	ids := in.G.SortedIDs()
	if len(ids) == 0 {
		return instance.Delta{}, false
	}
	anchor := ids[rng.intn(len(ids))]
	id := *nextID
	*nextID++
	return instance.Delta{AddNodes: []int{id}, AddEdges: [][2]int{{anchor, id}}}, true
}
