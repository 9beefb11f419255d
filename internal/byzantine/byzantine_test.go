package byzantine

import (
	"testing"

	"rmt/internal/graph"
	"rmt/internal/network"
	"rmt/internal/nodeset"
	"rmt/internal/protocol"
)

// collector counts messages it receives, per payload key.
type collector struct {
	byKey map[string]int
}

func newCollector() *collector { return &collector{byKey: map[string]int{}} }

func (c *collector) Init(network.Outbox) {}
func (c *collector) Round(_ int, inbox []network.Message, _ network.Outbox) bool {
	for _, m := range inbox {
		c.byKey[m.Payload.Key()]++
	}
	return true
}
func (c *collector) Decision() (network.Value, bool) { return "", false }

type ping string

func (p ping) BitSize() int { return 8 }
func (p ping) Key() string  { return string(p) }

// pinger sends one payload to a target each round.
type pinger struct {
	to int
	p  network.Payload
}

func (s *pinger) Init(out network.Outbox) { out(s.to, s.p) }
func (s *pinger) Round(_ int, _ []network.Message, out network.Outbox) bool {
	return false
}
func (s *pinger) Decision() (network.Value, bool) { return "", false }

func run(t *testing.T, g *graph.Graph, procs map[int]network.Process, rounds int) *network.Result {
	t.Helper()
	res, err := network.Run(network.Config{Graph: g, Processes: procs, MaxRounds: rounds})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func line(t *testing.T, n int) *graph.Graph {
	t.Helper()
	g := graph.New()
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1)
	}
	return g
}

func TestSilentSendsNothing(t *testing.T) {
	g := line(t, 3)
	c := newCollector()
	procs := map[int]network.Process{0: &pinger{to: 1, p: ping("x")}, 1: protocol.Silence(nodeset.Of(1))[1], 2: c}
	res := run(t, g, procs, 6)
	if len(c.byKey) != 0 {
		t.Fatalf("silent node leaked messages: %v", c.byKey)
	}
	// Only the pinger's single send counts.
	if res.Metrics.MessagesSent != 1 {
		t.Fatalf("messages = %d, want 1", res.Metrics.MessagesSent)
	}
}

func TestSilentStaysAlive(t *testing.T) {
	// A silenced node must keep consuming messages without halting, so the
	// engine never reports an artificial early quiescence from its side.
	s := protocol.Silence(nodeset.Of(1))[1]
	for r := 1; r <= 3; r++ {
		if !s.Round(r, []network.Message{{From: 0, To: 1, Payload: ping("x")}}, nil) {
			t.Fatal("Silent halted")
		}
	}
	if _, ok := s.Decision(); ok {
		t.Fatal("Silent decided")
	}
}

func TestSpammerFloodsNeighborsOnly(t *testing.T) {
	g := line(t, 4) // spammer at 1, neighbors {0, 2}; node 3 unreachable
	c0, c2, c3 := newCollector(), newCollector(), newCollector()
	spam := &Spammer{ID: 1, Neighbors: nodeset.Of(0, 2), PerRound: 2}
	procs := map[int]network.Process{0: c0, 1: spam, 2: c2, 3: c3}
	run(t, g, procs, 3)
	if len(c3.byKey) != 0 {
		t.Fatal("spam reached a non-neighbor")
	}
	total0 := 0
	for _, n := range c0.byKey {
		total0 += n
	}
	// Bursts sent at init and rounds 1–2 are delivered within the 3-round
	// cap; the round-3 burst is in flight when the run ends. 3 bursts × 2.
	if total0 != 6 {
		t.Fatalf("node 0 received %d spam messages, want 6", total0)
	}
	// Distinct keys per burst round (noise payloads are distinguishable).
	if len(c0.byKey) != 6 {
		t.Fatalf("expected 6 distinct noise keys, got %d", len(c0.byKey))
	}
}

func TestSpammerDefaultPerRound(t *testing.T) {
	c := newCollector()
	g := line(t, 2)
	spam := &Spammer{ID: 0, Neighbors: nodeset.Of(1)} // PerRound unset → 1
	run(t, g, map[int]network.Process{0: spam, 1: c}, 2)
	total := 0
	for _, n := range c.byKey {
		total += n
	}
	if total != 2 { // init + round-1 bursts land within the 2-round cap
		t.Fatalf("received %d, want 2", total)
	}
}

func TestReplayerEchoesWithDelay(t *testing.T) {
	g := line(t, 3)
	c := newCollector()
	procs := map[int]network.Process{
		0: &pinger{to: 1, p: ping("hello")},
		1: &Replayer{Neighbors: nodeset.Of(0, 2)},
		2: c,
	}
	run(t, g, procs, 5)
	if c.byKey["hello"] != 1 {
		t.Fatalf("replayed payload count = %d, want 1", c.byKey["hello"])
	}
}
