package network

import (
	"reflect"
	"testing"
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
