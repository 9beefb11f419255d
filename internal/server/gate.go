package server

import (
	"context"
	"sync"
)

// gate admits the daemon's computations with two counting semaphores and
// runs each on its caller's goroutine: at most cap(running) run at once,
// and at most cap(admitted) − cap(running) more wait for a running slot.
// It holds no goroutines of its own, so a computation costs no handoff
// to a worker and back.
type gate struct {
	running  chan struct{} // one token per running computation
	admitted chan struct{} // one token per admitted computation, running or waiting

	mu       sync.RWMutex // orders admission against close
	closed   bool
	inflight sync.WaitGroup // admitted computations, for close
}

// newGate returns a gate for workers running computations (≥ 1) and
// queue waiting ones (≥ 0).
func newGate(workers, queue int) *gate {
	return &gate{running: make(chan struct{}, workers), admitted: make(chan struct{}, workers+queue)}
}

// do admits one computation and calls fn on the calling goroutine once a
// running slot is free. It returns errOverloaded at once, without
// waiting, when the gate is full or closed, and ctx's error, without
// calling fn, when ctx ends before fn would start.
func (g *gate) do(ctx context.Context, fn func()) error {
	g.mu.RLock()
	if g.closed {
		g.mu.RUnlock()
		return errOverloaded
	}
	select {
	case g.admitted <- struct{}{}:
	default:
		g.mu.RUnlock()
		return errOverloaded
	}
	g.inflight.Add(1)
	g.mu.RUnlock()
	defer func() {
		<-g.admitted
		g.inflight.Done()
	}()
	select {
	case g.running <- struct{}{}:
	default:
		if err := g.wait(ctx); err != nil {
			return err
		}
	}
	defer func() { <-g.running }()
	fn()
	return nil
}

// wait takes a running slot once one frees up, or returns ctx's error,
// holding none, when ctx ends first. do tries for a free slot before it
// waits, so a computation that finds one never asks ctx for its Done
// channel, which a cancelCtx allocates on first use.
func (g *gate) wait(ctx context.Context) error {
	select {
	case g.running <- struct{}{}:
	case <-ctx.Done():
		return ctx.Err()
	}
	// select picks at random when a slot frees as ctx ends.
	if err := ctx.Err(); err != nil {
		<-g.running
		return err
	}
	return nil
}

// depth returns the number of admitted computations, running or waiting.
func (g *gate) depth() int { return len(g.admitted) }

// workers returns the number of running slots.
func (g *gate) workers() int { return cap(g.running) }

// close stops admission and waits for every admitted computation to
// finish; do returns errOverloaded from the moment close begins.
func (g *gate) close() {
	g.mu.Lock()
	g.closed = true
	g.mu.Unlock()
	g.inflight.Wait()
}
