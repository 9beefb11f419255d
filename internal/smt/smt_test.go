package smt

import (
	"bytes"
	"encoding/hex"
	"math"
	"math/rand"
	"os"
	"strconv"
	"testing"

	"rmt/internal/adversary"
	"rmt/internal/gen"
	"rmt/internal/graph"
	"rmt/internal/instance"
	"rmt/internal/network"
	"rmt/internal/nodeset"
	"rmt/internal/protocol"
)

// TestSharesReconstructRoundTrip is the differential share test: for random
// secrets, every share count and several seeds, Reconstruct inverts Shares,
// the split is deterministic under its seed, and changing the seed changes
// every pad.
func TestSharesReconstructRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := r.Intn(40)
		secret := make([]byte, n)
		r.Read(secret)
		k := 1 + r.Intn(5)
		seed := r.Int63()

		shares := Shares(secret, k, seed)
		if len(shares) != k {
			t.Fatalf("Shares returned %d shares, want %d", len(shares), k)
		}
		if got := Reconstruct(shares); !bytes.Equal(got, secret) {
			t.Fatalf("k=%d seed=%d: Reconstruct = %x, want %x", k, seed, got, secret)
		}
		again := Shares(secret, k, seed)
		for i := range shares {
			if !bytes.Equal(shares[i], again[i]) {
				t.Fatalf("k=%d seed=%d: share %d not deterministic", k, seed, i)
			}
		}
		if k > 1 && n > 4 {
			other := Shares(secret, k, seed+1)
			for i := 0; i < k-1; i++ {
				if bytes.Equal(shares[i], other[i]) {
					t.Fatalf("k=%d: pad %d identical across seeds %d and %d", k, i, seed, seed+1)
				}
			}
		}
	}
}

// TestSharesPadsIndependentOfSecret pins the privacy mechanism itself: all
// shares except the dependent last one are pure pads, byte-identical across
// different secrets of the same length under the same seed.
func TestSharesPadsIndependentOfSecret(t *testing.T) {
	const seed = 99
	a := Shares([]byte("attack-at-dawn!!"), 4, seed)
	b := Shares([]byte("retreat-at-dusk!"), 4, seed)
	for i := 0; i < 3; i++ {
		if !bytes.Equal(a[i], b[i]) {
			t.Errorf("pad share %d depends on the secret", i)
		}
	}
	if bytes.Equal(a[3], b[3]) {
		t.Errorf("dependent shares identical for different secrets")
	}
}

func mustInstance(t *testing.T, g *graph.Graph, z adversary.Structure, d, r int) *instance.Instance {
	t.Helper()
	in, err := instance.AdHoc(g, z, d, r)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// TestNewPlanWitnesses checks the plan construction on the four-path fixture:
// every path avoids the corruption ground, and for each maximal listening set
// its witness path avoids it too.
func TestNewPlanWitnesses(t *testing.T) {
	g, d, r := gen.DisjointPaths(4, 1)
	in := mustInstance(t, g, gen.Singletons(nodeset.Of(1, 2)), d, r)
	listen := adversary.FromSlices([]int{3}, []int{4})

	plan, err := NewPlan(in, listen)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Paths) != 2 {
		t.Fatalf("plan has %d paths, want 2 (one per surviving relay): %v", len(plan.Paths), plan.Paths)
	}
	ground := in.Z.Ground()
	for i, p := range plan.Paths {
		if !p.ValidIn(g) || p.Head() != d || p.Tail() != r {
			t.Errorf("path %d = %v is not a D–R path", i, p)
		}
		if ground.Intersects(p.Set()) {
			t.Errorf("path %d = %v touches corruption ground %v", i, p, ground)
		}
	}
	maximal := listen.Maximal()
	if len(plan.Witness) != len(maximal) {
		t.Fatalf("plan has %d witnesses, want %d", len(plan.Witness), len(maximal))
	}
	for j, l := range maximal {
		w := plan.Paths[plan.Witness[j]]
		if l.Intersects(w.Set()) {
			t.Errorf("witness path %v for listening set %v does not avoid it", w, l)
		}
	}
}

// TestNewPlanTrivialListen: with no listening structure the plan degenerates
// to a single honest path and the single share is the secret.
func TestNewPlanTrivialListen(t *testing.T) {
	g, d, r := gen.DisjointPaths(3, 1)
	in := mustInstance(t, g, gen.Singletons(nodeset.Of(1)), d, r)
	plan, err := NewPlan(in, adversary.Structure{})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Paths) != 1 || plan.Dependent() != 0 {
		t.Fatalf("trivial-listen plan = %+v, want exactly one path", plan)
	}
}

// TestNewPlanAgreesWithFeasible is the predicate⇔protocol differential: over
// random graphs and random corruption/listening structures, NewPlan succeeds
// exactly when adversary.Generalised.Feasible holds. `make smtfuzz` scales
// the sweep up via SMT_TRIALS.
func TestNewPlanAgreesWithFeasible(t *testing.T) {
	trials := 400
	if s := os.Getenv("SMT_TRIALS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 1 {
			t.Fatalf("SMT_TRIALS=%q: want a positive integer", s)
		}
		trials = n
	}
	r := rand.New(rand.NewSource(41))
	randomStructure := func(n, sets, size int) adversary.Structure {
		var members [][]int
		for i := 0; i < sets; i++ {
			s := nodeset.Empty()
			for j := 0; j < 1+r.Intn(size); j++ {
				s = s.Add(r.Intn(n))
			}
			members = append(members, s.Members())
		}
		return adversary.FromSlices(members...)
	}
	agree, disagree := 0, map[bool]int{}
	for trial := 0; trial < trials; trial++ {
		n := 4 + r.Intn(4)
		g := gen.RandomGNP(r, n, 0.5)
		d, rcv := 0, n-1
		z := randomStructure(n, 1+r.Intn(2), 2)
		l := randomStructure(n, 1+r.Intn(3), 2)
		in, err := instance.AdHoc(g, z, d, rcv)
		if err != nil {
			continue // structure touches dealer/receiver in a way AdHoc rejects
		}
		want := adversary.NewGeneralised(z, l).Feasible(g, d, rcv)
		_, planErr := NewPlan(in, l)
		if got := planErr == nil; got != want {
			t.Errorf("trial %d: NewPlan feasible=%v, predicate=%v (g=%v z=%v l=%v)", trial, got, want, g, z, l)
			disagree[want]++
			continue
		}
		if planErr != nil && !protocol.IsCapsError(planErr) {
			t.Errorf("trial %d: infeasible plan error is not a CapsError: %v", trial, planErr)
		}
		agree++
	}
	if agree < trials/4 {
		t.Fatalf("only %d informative trials of %d; fixture generator too narrow", agree, trials)
	}
}

// TestRunDeliversSecret runs the full protocol end-to-end on the four-path
// fixture across engines, with an admissible corruption silenced, and checks
// the receiver reconstructs the exact secret.
func TestRunDeliversSecret(t *testing.T) {
	g, d, r := gen.DisjointPaths(4, 1)
	in := mustInstance(t, g, gen.Singletons(nodeset.Of(1, 2)), d, r)
	listen := adversary.FromSlices([]int{1, 3}, []int{4})
	secret := network.Value("the-secret-payload")

	for _, engine := range []network.Engine{network.Lockstep, network.Goroutine, network.Async} {
		for _, corrupt := range []nodeset.Set{nodeset.Empty(), nodeset.Of(1)} {
			opts := Options{Engine: engine, Listen: listen, Seed: 1234}
			if !corrupt.IsEmpty() {
				opts.Corrupt = protocol.Silence(corrupt)
			}
			res, err := Run(in, secret, nil, opts)
			if err != nil {
				t.Fatalf("engine=%v corrupt=%v: %v", engine, corrupt, err)
			}
			got, ok := res.Decisions[r]
			if !ok {
				t.Fatalf("engine=%v corrupt=%v: receiver did not decide", engine, corrupt)
			}
			if got != secret {
				t.Errorf("engine=%v corrupt=%v: decided %q, want %q", engine, corrupt, got, secret)
			}
		}
	}
}

// TestRunRejectsInfeasiblePairing: assembling against a listening structure
// that covers every honest path is a usage error, reported as a CapsError
// before any message flows.
func TestRunRejectsInfeasiblePairing(t *testing.T) {
	g, d, r := gen.DisjointPaths(3, 1)
	in := mustInstance(t, g, gen.Singletons(nodeset.Of(1)), d, r)
	// Ground {1}; listening set {2, 3} covers both surviving relays.
	_, err := Run(in, "x", nil, Options{Listen: adversary.FromSlices([]int{2, 3})})
	if err == nil {
		t.Fatal("Run succeeded on a secrecy-cut pairing")
	}
	if !protocol.IsCapsError(err) {
		t.Fatalf("infeasible pairing error is not a CapsError: %v", err)
	}
}

// TestReceiverRejectsInjectedShares: a share arriving off-plan — wrong path,
// wrong predecessor, or a forged index — must never reach reconstruction.
func TestReceiverRejectsInjectedShares(t *testing.T) {
	g, d, r := gen.DisjointPaths(4, 1)
	in := mustInstance(t, g, gen.Singletons(nodeset.Of(1, 2)), d, r)
	listen := adversary.FromSlices([]int{3}, []int{4})
	plan, err := NewPlan(in, listen)
	if err != nil {
		t.Fatal(err)
	}
	rcv := NewReceiver(plan, r)
	forged := ShareMsg{Idx: 0, P: graph.Path{d, 1, r}, X: "00"}
	rcv.Round(1, []network.Message{{From: 1, To: r, Payload: forged}}, nil)
	if rcv.have != 0 {
		t.Fatal("receiver accepted a share with a foreign path")
	}
	real := plan.Paths[0]
	wrongFrom := ShareMsg{Idx: 0, P: real, X: "00"}
	rcv.Round(2, []network.Message{{From: 1, To: r, Payload: wrongFrom}}, nil)
	if rcv.have != 0 {
		t.Fatal("receiver accepted a share from a non-predecessor")
	}
	badIdx := ShareMsg{Idx: len(plan.Paths), P: real, X: "00"}
	rcv.Round(3, []network.Message{{From: real[len(real)-2], To: r, Payload: badIdx}}, nil)
	if rcv.have != 0 {
		t.Fatal("receiver accepted an out-of-range share index")
	}
}

// TestShareBitSizeMatchesKey pins the arithmetic BitSize to the encoding it
// charges for: eight bits per byte of Key, over seeded shares with one- to
// many-digit and negative indices and hop IDs, empty and long paths, and
// empty X.
func TestShareBitSizeMatchesKey(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	num := func() int {
		switch r.Intn(4) {
		case 0:
			return r.Intn(10)
		case 1:
			return r.Intn(1000)
		case 2:
			return r.Int()
		default:
			return -r.Intn(1 << 20)
		}
	}
	for trial := 0; trial < 2000; trial++ {
		m := ShareMsg{Idx: num()}
		for hops := r.Intn(6); hops > 0; hops-- {
			m.P = append(m.P, num())
		}
		if r.Intn(3) > 0 {
			b := make([]byte, r.Intn(40))
			r.Read(b)
			m.X = hex.EncodeToString(b)
		}
		if got, want := m.BitSize(), 8*len(m.Key()); got != want {
			t.Fatalf("%+v: BitSize = %d, want 8·len(%q) = %d", m, got, m.Key(), want)
		}
	}
	for _, v := range []int{0, 9, 10, -1, -10, math.MaxInt, math.MinInt} {
		if m := (ShareMsg{Idx: v, P: graph.Path{v, v}}); m.BitSize() != 8*len(m.Key()) {
			t.Fatalf("Idx %d: BitSize = %d, want %d", v, m.BitSize(), 8*len(m.Key()))
		}
	}
}
