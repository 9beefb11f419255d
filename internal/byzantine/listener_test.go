package byzantine

import (
	"strings"
	"testing"

	"rmt/internal/adversary"
	"rmt/internal/gen"
	"rmt/internal/instance"
	"rmt/internal/network"
	"rmt/internal/nodeset"
	"rmt/internal/protocol"
	"rmt/internal/smt"
)

// TestListenerIsPassive: an honest-but-curious listener on a share path must
// not perturb the run — the receiver still reconstructs the secret — while
// the quiet variant kills the shares through it.
func TestListenerIsPassive(t *testing.T) {
	g, d, r := gen.DisjointPaths(3, 1)
	in, err := instance.AdHoc(g, gen.Singletons(nodeset.Of(1)), d, r)
	if err != nil {
		t.Fatal(err)
	}
	listen := adversary.FromSlices([]int{2}, []int{3})
	secret := network.Value("eavesdrop-me")

	log := &ListenLog{}
	res, err := protocol.Run(smt.Proto{}, in, secret, protocol.Options{Corrupt: NewListeners(nodeset.Of(2), log, true), Listen: listen, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Decisions[r]; got != secret {
		t.Fatalf("receiver decided %q under a forwarding listener, want %q", got, secret)
	}
	if log.ShareIndices().IsEmpty() {
		t.Fatal("listener on a share path recorded no shares")
	}
	if idx := log.ShareIndices(); idx.Len() >= 2 {
		t.Fatalf("listener on one path heard %v share indices — the plan leaked", idx)
	}
	if !strings.Contains(log.View(), "smt:share:") {
		t.Fatalf("log view lacks share keys:\n%s", log.View())
	}

	quiet := &ListenLog{}
	res, err = protocol.Run(smt.Proto{}, in, secret, protocol.Options{Corrupt: NewListeners(nodeset.Of(2), quiet, false), Listen: listen, Seed: 5, MaxRounds: 16})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res.Decisions[r]; ok {
		t.Fatal("receiver decided even though the quiet listener dropped a share")
	}
	if quiet.ShareIndices().IsEmpty() {
		t.Fatal("quiet listener recorded nothing")
	}
}
