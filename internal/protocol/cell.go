package protocol

import "rmt/internal/network"

// Cell is how a run's engine and network faults are configured, as pure
// data: the engine, the async delivery schedule and its seed, and the
// message adversary's policy, budget and seed. Schedulers and message
// adversaries keep per-run state, so no harness holds one; each run asks
// its cell for fresh ones through Options. Equal cells therefore replay
// equal runs at any worker count, which is what lets a sweep re-trace a
// violating run from its cell alone.
type Cell struct {
	Engine network.Engine
	// Schedule and SchedSeed build the async delivery schedule ("" = none;
	// the async engine then runs the zero-fault schedule). The synchronous
	// engines ignore it.
	Schedule  string
	SchedSeed int64
	// MAPolicy, MABudget and MASeed build the message adversary ("" =
	// none); MABudget is also the budget the protocol provisions for.
	MAPolicy string
	MABudget int
	MASeed   int64
}

// Options returns the cell's run options around a fresh scheduler and
// message adversary. Callers add the run's own fields (corruption,
// tracers, round bound) to the returned value.
func (c Cell) Options() (Options, error) {
	opts := Options{Engine: c.Engine, MABudget: c.MABudget}
	if c.Schedule != "" {
		sched, err := network.NewScheduler(c.Schedule, c.SchedSeed)
		if err != nil {
			return opts, err
		}
		opts.Scheduler = sched
	}
	if c.MAPolicy != "" {
		madv, err := network.NewMessageAdversary(c.MAPolicy, c.MABudget, c.MASeed)
		if err != nil {
			return opts, err
		}
		opts.MsgAdversary = madv
	}
	return opts, nil
}
