package byzantine_test

import (
	"testing"

	"rmt/internal/adversary"
	"rmt/internal/byzantine"
	"rmt/internal/gen"
	"rmt/internal/instance"
	"rmt/internal/mbrb"
	"rmt/internal/network"
	"rmt/internal/nodeset"
	"rmt/internal/protocol"
)

// TestReadyForgerCannotSubvertMBRB pins the quorum-safety argument: the
// forged echo/ready votes of t corrupted players stay below every quorum,
// so all honest players deliver the dealer's value — with and without the
// message adversary spending its budget on top.
func TestReadyForgerCannotSubvertMBRB(t *testing.T) {
	g := gen.Complete(6)
	in, err := instance.AdHoc(g, adversary.GlobalThreshold(nodeset.Of(1, 2, 3, 4), 1), 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	strat := byzantine.MustGet(byzantine.ReadyForgerName)
	for _, withMA := range []bool{false, true} {
		opts := protocol.Options{MABudget: 1, Corrupt: strat.Build(in, nodeset.Of(1), "evil")}
		victims := []int{}
		if withMA {
			opts.MsgAdversary = network.NewEclipse(2)
			victims = append(victims, 2)
		}
		res, err := protocol.Run(mbrb.Proto{}, in, "x", opts)
		if err != nil {
			t.Fatal(err)
		}
		for v, x := range res.Decisions {
			if x != "x" {
				t.Errorf("withMA=%v: player %d delivered %q, want \"x\"", withMA, v, x)
			}
		}
		want := 5 - len(victims) // all correct non-victims
		if len(res.Decisions) != want {
			t.Errorf("withMA=%v: %d players delivered, want %d", withMA, len(res.Decisions), want)
		}
	}
}
