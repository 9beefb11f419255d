package protocol_test

import (
	"math/rand"
	"sort"
	"testing"

	"rmt/internal/network"
	"rmt/internal/nodeset"
	"rmt/internal/protocol"
	"rmt/internal/zcpa"
)

// TestTallyMatchesSenderMap: over seeded report streams with repeated
// values and senders, senders beyond one bitset word, and the empty value,
// a Tally holds exactly the value → distinct-sender sets a map of Sets
// accumulates, with its values in ascending order after every Add and
// Add returning the value's index.
func TestTallyMatchesSenderMap(t *testing.T) {
	r := rand.New(rand.NewSource(18))
	for trial := 0; trial < 500; trial++ {
		var tally protocol.Tally
		ref := map[network.Value]nodeset.Set{}
		for k := r.Intn(40); k > 0; k-- {
			x := network.Value([]string{"", "0", "1", "forged", "x", "x1"}[r.Intn(6)])
			from := r.Intn(1 + r.Intn(200))
			i := tally.Add(x, from)
			if tally.Value(i) != x {
				t.Fatalf("trial %d: Add(%q) returned index %d holding %q", trial, x, i, tally.Value(i))
			}
			ref[x] = ref[x].Add(from)
			vals := make([]string, 0, len(ref))
			for v := range ref {
				vals = append(vals, string(v))
			}
			sort.Strings(vals)
			if tally.Len() != len(vals) {
				t.Fatalf("trial %d: %d values, want %d", trial, tally.Len(), len(vals))
			}
			for i, v := range vals {
				x := network.Value(v)
				if tally.Value(i) != x || !tally.Senders(i).Equal(ref[x]) || tally.Count(i) != ref[x].Len() {
					t.Fatalf("trial %d: entry %d is %q ← %v (%d), want %q ← %v", trial, i,
						tally.Value(i), tally.Senders(i), tally.Count(i), x, ref[x])
				}
			}
		}
	}
}

// memberOf is a membership oracle that admits exactly the listed sets.
type memberOf []nodeset.Set

func (m memberOf) Member(_ int, reporters nodeset.Set) bool {
	for _, s := range m {
		if s.Equal(reporters) {
			return true
		}
	}
	return false
}

// TestOracleDeciderScansValuesInOrder: when several classes certify, the
// textbook decider returns the smallest value, whatever order the reports
// arrived in — the sorted scan every engine must agree on.
func TestOracleDeciderScansValuesInOrder(t *testing.T) {
	d := zcpa.WrapOracle(memberOf{nodeset.Of(4)})
	var classes protocol.Tally
	classes.Add("z", 1)
	classes.Add("y", 2)
	classes.Add("a", 4) // the only class inside Z_v
	classes.Add("y", 3)
	if x, ok := d.Decide(0, &classes); !ok || x != "y" {
		t.Fatalf("Decide = %q, %v; want y", x, ok)
	}
}
