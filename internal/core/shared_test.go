package core

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"rmt/internal/feasibility"
	"rmt/internal/gen"
	"rmt/internal/instance"
	"rmt/internal/network"
)

// TestSharedStoreConcurrentRuns starts every strategy × engine ×
// {no horizon, horizon 4} run of RMT-PKA at once on one fresh instance, so
// the runs race to fill the same warm store — sealed claims, prebuilt
// dealer payloads, shared relays and their rebuild caches, interners and
// candidate records. Each run must equal its twin run alone on another
// fresh build of the instance: decision, decision round, rounds and
// metrics. Under -race it checks the store's locking.
func TestSharedStoreConcurrentRuns(t *testing.T) {
	build := func() *instance.Instance {
		return feasibility.MustByName(feasibility.Chimera).MustBuild(gen.Radius2)
	}
	type job struct {
		label    string
		strategy string
		opts     Options
	}
	alone := build()
	corrupt := alone.MaximalCorruptions()[0]
	var jobs []job
	for name := range Strategies(alone, corrupt, "forged") {
		for _, eng := range memoEngines {
			for _, horizon := range []int{0, 4} {
				jobs = append(jobs, job{
					label:    fmt.Sprintf("%s/%s/horizon %d", name, eng.name, horizon),
					strategy: name,
					opts:     Options{Engine: eng.engine, Horizon: horizon},
				})
			}
		}
	}
	run := func(in *instance.Instance, j job) (*network.Result, error) {
		// Strategy processes are stateful: build a fresh zoo per run.
		return Run(in, "real", Strategies(in, corrupt, "forged")[j.strategy], j.opts)
	}

	want := make([]*network.Result, len(jobs))
	for i, j := range jobs {
		res, err := run(alone, j)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}

	shared := build()
	got := make([]*network.Result, len(jobs))
	errs := make([]error, len(jobs))
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i, j := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			got[i], errs[i] = run(shared, j)
		}()
	}
	close(start)
	wg.Wait()

	decided := 0
	for i, j := range jobs {
		if errs[i] != nil {
			t.Fatalf("%s: %v", j.label, errs[i])
		}
		requireSameRun(t, j.label, shared, got[i], want[i])
		if !reflect.DeepEqual(got[i].DecidedAtRound, want[i].DecidedAtRound) ||
			!reflect.DeepEqual(got[i].Metrics, want[i].Metrics) {
			t.Fatalf("%s: concurrent run decided at %v with metrics %+v, alone at %v with %+v",
				j.label, got[i].DecidedAtRound, got[i].Metrics, want[i].DecidedAtRound, want[i].Metrics)
		}
		if _, ok := got[i].DecisionOf(shared.Receiver); ok {
			decided++
		}
	}
	if decided == 0 {
		t.Fatalf("none of %d runs decides; the race never reaches the candidate records", len(jobs))
	}
}
