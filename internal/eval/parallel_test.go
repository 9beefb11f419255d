package eval

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"rmt/internal/network"
)

// TestParallelTablesDeterministic is the harness's contract: for a fixed
// seed, every table renders byte-identical no matter how many workers run
// the trials. E11 is excluded — it reports wall-clock timings.
func TestParallelTablesDeterministic(t *testing.T) {
	render := func(workers int) map[string][]byte {
		p := Params{Seed: 2016, Trials: 12, Workers: workers}
		out := map[string][]byte{}
		for _, tbl := range RunAll(p) {
			if tbl.ID == "E11" {
				continue
			}
			var buf bytes.Buffer
			tbl.Render(&buf)
			out[tbl.ID] = buf.Bytes()
		}
		return out
	}
	seq := render(1)
	par := render(8)
	if len(seq) != len(par) {
		t.Fatalf("table count differs: %d vs %d", len(seq), len(par))
	}
	for id, want := range seq {
		if got, ok := par[id]; !ok || !bytes.Equal(want, got) {
			t.Errorf("%s: Workers=8 render differs from Workers=1\nsequential:\n%s\nparallel:\n%s", id, want, got)
		}
	}
}

// TestAsyncE7IndependentOfWorkers runs Theorem 9's experiment under a
// seeded async schedule. Each run builds its own scheduler from the
// schedule name and Params.Seed, so the direct and Π-simulated runs of a
// pair see the same delivery order: every row must report disagree = 0,
// and the table must not depend on the worker count.
func TestAsyncE7IndependentOfWorkers(t *testing.T) {
	render := func(workers int) (*Table, []byte) {
		tbl := E7DecisionProtocol(Params{Trials: 10, Workers: workers, Engine: network.Async, Schedule: "fifo"})
		var buf bytes.Buffer
		tbl.Render(&buf)
		return tbl, buf.Bytes()
	}
	tbl, seq := render(1)
	if _, par := render(4); !bytes.Equal(seq, par) {
		t.Fatalf("Workers=4 render differs from Workers=1\nsequential:\n%s\nparallel:\n%s", seq, par)
	}
	col := slices.Index(tbl.Columns, "disagree")
	for _, row := range tbl.Rows {
		if row[col] != "0" {
			t.Errorf("%s: disagree = %s under the fifo schedule, want 0\n%s", row[0], row[col], seq)
		}
	}
}

func TestTrialSeedDecorrelated(t *testing.T) {
	seen := map[int64]bool{}
	for stream := 0; stream < 20; stream++ {
		for trial := 0; trial < 200; trial++ {
			s := trialSeed(2016, stream, trial)
			if s < 0 {
				t.Fatalf("trialSeed(2016, %d, %d) = %d, want non-negative", stream, trial, s)
			}
			if seen[s] {
				t.Fatalf("trialSeed collision at stream=%d trial=%d", stream, trial)
			}
			seen[s] = true
		}
	}
}

func TestParallelMapOrderAndCoverage(t *testing.T) {
	for _, workers := range []int{1, 3, 16} {
		got := parallelMap(100, workers, func(i int) int { return i * i })
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: slot %d = %d, want %d", workers, i, v, i*i)
			}
		}
	}
	if got := parallelMap(0, 4, func(i int) int { return i }); len(got) != 0 {
		t.Fatalf("n=0: got %v, want empty", got)
	}
}

func TestRunTrialsIndependentOfWorkerCount(t *testing.T) {
	draw := func(workers int) []int64 {
		p := Params{Seed: 7, Trials: 50, Workers: workers}
		return runTrials(p, 99, func(r *rand.Rand, _ int) int64 { return r.Int63() })
	}
	a, b := draw(1), draw(6)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("trial %d drew %d sequentially but %d with 6 workers", i, a[i], b[i])
		}
	}
}
