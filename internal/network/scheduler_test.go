package network

import (
	"reflect"
	"testing"

	"rmt/internal/graph"
)

func msg(from, to int) Message {
	return Message{From: from, To: to, Payload: textPayload("m")}
}

func TestSchedulerNamesAndRegistry(t *testing.T) {
	names := SchedulerNames()
	want := []string{"fifo", "lifo", "partition", "random", "sync"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("SchedulerNames() = %v, want %v", names, want)
	}
	for _, name := range names {
		s, err := NewScheduler(name, 7)
		if err != nil {
			t.Fatalf("NewScheduler(%q): %v", name, err)
		}
		if s.Name() != name {
			t.Errorf("scheduler %q reports name %q", name, s.Name())
		}
	}
	if _, err := NewScheduler("bogus", 1); err == nil {
		t.Fatal("NewScheduler accepted unknown name")
	}
}

func TestMustSchedulerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustScheduler did not panic on unknown name")
		}
	}()
	MustScheduler("bogus", 1)
}

func TestSyncSchedulerIsNextRound(t *testing.T) {
	s := MustScheduler(SchedSync, 0)
	for sent := 0; sent < 5; sent++ {
		if at := s.DeliverAt(sent, msg(0, 1)); at != sent+1 {
			t.Fatalf("sync DeliverAt(%d) = %d", sent, at)
		}
	}
}

func TestRandomSchedulerBoundsAndDeterminism(t *testing.T) {
	a := MustScheduler(SchedRandom, 42)
	b := MustScheduler(SchedRandom, 42)
	c := MustScheduler(SchedRandom, 43)
	sawSkew, differs := false, false
	for i := 0; i < 200; i++ {
		sent := i % 7
		at := a.DeliverAt(sent, msg(0, 1))
		if at < sent+1 || at > sent+1+MaxSkew {
			t.Fatalf("random DeliverAt(%d) = %d outside [sent+1, sent+1+MaxSkew]", sent, at)
		}
		if at > sent+1 {
			sawSkew = true
		}
		if bt := b.DeliverAt(sent, msg(0, 1)); bt != at {
			t.Fatalf("same seed diverged at draw %d: %d vs %d", i, at, bt)
		}
		if ct := c.DeliverAt(sent, msg(0, 1)); ct != at {
			differs = true
		}
	}
	if !sawSkew {
		t.Fatal("random scheduler never delayed anything")
	}
	if !differs {
		t.Fatal("different seeds produced identical schedules")
	}
}

func TestFIFOSchedulerPreservesLinkOrder(t *testing.T) {
	s := MustScheduler(SchedFIFO, 5)
	last := map[[2]int]int{}
	for sent := 0; sent < 20; sent++ {
		for _, link := range [][2]int{{0, 1}, {1, 0}, {2, 3}} {
			at := s.DeliverAt(sent, msg(link[0], link[1]))
			if at < sent+1 {
				t.Fatalf("fifo delivered into the past: sent %d at %d", sent, at)
			}
			if prev, ok := last[link]; ok && at < prev {
				t.Fatalf("fifo reordered link %v: %d after %d", link, at, prev)
			}
			last[link] = at
		}
	}
}

func TestLIFOSchedulerReordersWindows(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		s := MustScheduler(SchedLIFO, seed)
		// Same-round sends on one link: within every aligned window of the
		// 3,2,1 cycle, later sends arrive strictly earlier, and delays stay
		// in [1, MaxSkew]. The seeded phase only shifts where the first
		// window boundary falls.
		sent := 4
		var ats []int
		for i := 0; i < 3*MaxSkew; i++ {
			at := s.DeliverAt(sent, msg(0, 1))
			if at < sent+1 || at > sent+MaxSkew {
				t.Fatalf("seed %d: lifo delay %d outside [1, MaxSkew]", seed, at-sent)
			}
			ats = append(ats, at)
		}
		for i := 1; i < len(ats); i++ {
			// A later send either arrives strictly earlier (inside a window)
			// or a new window starts at the full MaxSkew delay.
			if ats[i] >= ats[i-1] && ats[i] != sent+MaxSkew {
				t.Fatalf("seed %d: lifo not last-writer-first: %v", seed, ats)
			}
		}
	}
}

// TestLIFOSchedulerSeedDrivesPhase pins the seed contract NewScheduler
// documents: equal (name, seed) pairs reproduce the schedule exactly, and
// distinct seeds change at least one link's cycle phase — pre-fix, lifo
// ignored its seed entirely, so every per-trial seed of the schedule
// fuzzer ran the identical schedule.
func TestLIFOSchedulerSeedDrivesPhase(t *testing.T) {
	firstDelays := func(seed int64) []int {
		s := MustScheduler(SchedLIFO, seed)
		var out []int
		for _, link := range [][2]int{{0, 1}, {1, 0}, {2, 3}, {3, 7}, {5, 2}} {
			out = append(out, s.DeliverAt(0, msg(link[0], link[1])))
		}
		return out
	}
	base := firstDelays(1)
	if again := firstDelays(1); !reflect.DeepEqual(base, again) {
		t.Fatalf("same seed diverged: %v vs %v", base, again)
	}
	differs := false
	for seed := int64(2); seed <= 16 && !differs; seed++ {
		differs = !reflect.DeepEqual(firstDelays(seed), base)
	}
	if !differs {
		t.Fatal("seeds 2..16 all produced seed-1's lifo schedule — seed is ignored")
	}
}

func TestPartitionSchedulerHealsEventually(t *testing.T) {
	// Find a seed whose partition separates nodes 0 and 1; the block
	// assignment is seed-dependent, so probe a few.
	for seed := int64(0); seed < 32; seed++ {
		s := MustScheduler(SchedPartition, seed).(*partitionScheduler)
		if s.side(0) == s.side(1) {
			continue
		}
		// Cross messages before the heal all land right after it.
		for sent := 0; sent < s.heal; sent++ {
			if at := s.DeliverAt(sent, msg(0, 1)); at != s.heal+1 {
				t.Fatalf("seed %d: cross message sent %d delivered %d, want %d", seed, sent, at, s.heal+1)
			}
		}
		// After the heal the link is synchronous again.
		if at := s.DeliverAt(s.heal, msg(0, 1)); at != s.heal+1 {
			t.Fatalf("seed %d: post-heal delivery %d", seed, at)
		}
		if at := s.DeliverAt(s.heal+3, msg(1, 0)); at != s.heal+4 {
			t.Fatalf("seed %d: post-heal delivery %d", seed, at)
		}
		// Same-side messages are never held.
		same := -1
		for v := 2; v < 10; v++ {
			if s.side(v) == s.side(0) {
				same = v
				break
			}
		}
		if same >= 0 {
			if at := s.DeliverAt(0, msg(0, same)); at != 1 {
				t.Fatalf("seed %d: same-side message delayed to %d", seed, at)
			}
		}
		return
	}
	t.Fatal("no seed separated nodes 0 and 1 — side hash is degenerate")
}

func TestSplitMixDeterminism(t *testing.T) {
	a, b := newSplitMix(9), newSplitMix(9)
	for i := 0; i < 50; i++ {
		if a.next() != b.next() {
			t.Fatal("splitmix64 streams with equal seeds diverged")
		}
	}
	if newSplitMix(1).next() == newSplitMix(2).next() {
		t.Fatal("splitmix64 seeds 1 and 2 collide on first draw")
	}
}

func TestParseEngine(t *testing.T) {
	for name, want := range map[string]Engine{
		"lockstep": Lockstep, "goroutine": Goroutine, "async": Async,
	} {
		got, err := EngineByName(name)
		if err != nil || got != want {
			t.Errorf("EngineByName(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := EngineByName("nope"); err == nil {
		t.Fatal("EngineByName accepted unknown engine")
	}
}

// refFIFO and refLIFO are the fifo and lifo schedulers as they were before
// their per-link state moved from maps onto linkTable: the reference the
// differential below holds the schedulers to.
type refFIFO struct {
	rng  *splitmix64
	last map[[2]int]int
}

func (s *refFIFO) DeliverAt(sent int, m Message) int {
	link := [2]int{m.From, m.To}
	at := sent + 1 + s.rng.intn(MaxSkew+1)
	if prev := s.last[link]; at < prev {
		at = prev
	}
	s.last[link] = at
	return at
}

type refLIFO struct {
	seed uint64
	seq  map[[2]int]int
}

func (s *refLIFO) DeliverAt(sent int, m Message) int {
	link := [2]int{m.From, m.To}
	n, seen := s.seq[link]
	if !seen {
		h := newSplitMix(s.seed ^
			(uint64(link[0])+1)*0xbf58476d1ce4e5b9 ^
			(uint64(link[1])+1)*0x94d049bb133111eb)
		n = h.intn(MaxSkew)
	}
	s.seq[link] = n + 1
	return sent + MaxSkew - n%MaxSkew
}

// TestLinkSchedulersMatchReference feeds fifo and lifo and their map
// references the same seeded streams of sends — round by round, in merge
// order, over dense IDs, sparse ones and ones spread up to
// graph.MaxNodeID, on enough links to grow the link table several times —
// and requires equal DeliverAt sequences.
func TestLinkSchedulersMatchReference(t *testing.T) {
	idSets := map[string]func(i int) int{
		"dense":  func(i int) int { return i },
		"sparse": func(i int) int { return 7 + 1009*i },
		"spread": func(i int) int { return graph.MaxNodeID - i<<14 },
	}
	for name, id := range idSets {
		for seed := int64(0); seed < 6; seed++ {
			r := newSplitMix(uint64(seed) ^ 0x5eed)
			n := 3 + r.intn(40)
			fifo, lifo := MustScheduler(SchedFIFO, seed), MustScheduler(SchedLIFO, seed)
			refs := []interface{ DeliverAt(int, Message) int }{
				&refFIFO{rng: newSplitMix(uint64(seed)), last: map[[2]int]int{}},
				&refLIFO{seed: uint64(seed), seq: map[[2]int]int{}},
			}
			for sent := 0; sent < 12; sent++ {
				for from := 0; from < n; from++ {
					for k := r.intn(n); k > 0; k-- {
						m := msg(id(from), id(r.intn(n)))
						for i, s := range []Scheduler{fifo, lifo} {
							if got, want := s.DeliverAt(sent, m), refs[i].DeliverAt(sent, m); got != want {
								t.Fatalf("%s ids, seed %d, %s: %d→%d sent %d delivered %d, reference %d",
									name, seed, s.Name(), m.From, m.To, sent, got, want)
							}
						}
					}
				}
			}
		}
	}
}

// gossipProc sends to every neighbour in Init and in each round up to
// rounds, then halts: steady per-link traffic for the async schedulers.
type gossipProc struct {
	neighbors []int
	rounds    int
}

func (c *gossipProc) Init(out Outbox) { c.send(out) }

func (c *gossipProc) Round(round int, _ []Message, out Outbox) bool {
	if round > c.rounds {
		return false
	}
	c.send(out)
	return true
}

func (c *gossipProc) Decision() (Value, bool) { return "", false }

func (c *gossipProc) send(out Outbox) {
	for _, u := range c.neighbors {
		out(u, textPayload("c"))
	}
}

// TestLinkSchedulerAllocBudget bounds the allocations of an async run on
// K_24, dense and with IDs spread over 2^20, under the fifo and lifo
// schedules: 552 directed links, four sends on each. With per-link maps a
// run allocated 30 (fifo) and 29 (lifo) times; on the link table, which
// grew 64 → 1,024 slots in five allocations, 18 and 17; on the table the
// engine reserves for the graph's 2|E| links before the first round, one
// allocation of 1,024 slots, 13 and 12. The budget sits about a quarter
// above the latter.
func TestLinkSchedulerAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const n, rounds, budget = 24, 3, 16
	for name, id := range map[string]func(i int) int{
		"dense":  func(i int) int { return i },
		"spread": func(i int) int { return i * (1 << 20) / n },
	} {
		g := graph.New()
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				g.AddEdge(id(u), id(v))
			}
		}
		procs := make(map[int]Process, n)
		gossips := make([]gossipProc, n)
		g.Nodes().ForEach(func(v int) bool {
			c := &gossips[len(procs)]
			c.neighbors, c.rounds = g.Neighbors(v).Members(), rounds
			procs[v] = c
			return true
		})
		for _, sched := range []string{SchedFIFO, SchedLIFO} {
			run := func() {
				res, err := Run(Config{Graph: g, Processes: procs, Engine: Async, Scheduler: MustScheduler(sched, 3), MaxRounds: 2 * rounds})
				if err != nil {
					t.Fatal(err)
				}
				if res.Metrics.MessagesSent != (rounds+1)*n*(n-1) {
					t.Fatalf("%s %s: %d messages sent, want %d", name, sched, res.Metrics.MessagesSent, (rounds+1)*n*(n-1))
				}
			}
			run()
			if got := testing.AllocsPerRun(20, run); got > budget {
				t.Errorf("%s ids, %s: %.0f allocs per run, budget %d", name, sched, got, budget)
			} else {
				t.Logf("%s ids, %s: %.0f allocs per run (budget %d)", name, sched, got, budget)
			}
		}
	}
}
