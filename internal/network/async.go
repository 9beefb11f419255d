package network

// asyncEngine executes the run under the configured Scheduler (SyncScheduler
// when nil): a deterministic event-driven simulation in which the scheduler
// assigns every accepted send a delivery round, permuting per-message
// delivery order and round membership under the engine-enforced
// eventual-delivery clamp (see runState.deliveryRound).
//
// The engine reuses the lockstep round loop verbatim: all asynchrony lives
// in the delivery calendar that runState.merge fills by consulting the
// scheduler, so the async engine is single-goroutine and exactly as
// deterministic as lockstep — a seeded scheduler reproduces a run
// byte-identically, FoundationDB-style. Under SyncScheduler the calendar
// degenerates to next-round delivery and the engine is transcript-identical
// to lockstep, which the conformance suite asserts.
type asyncEngine struct{}

// Name implements Engine.
func (asyncEngine) Name() string { return EngineAsync }

// Run implements Engine.
func (e asyncEngine) Run(cfg Config) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Engine == nil {
		cfg.Engine = e
	}
	if cfg.Scheduler == nil {
		cfg.Scheduler = SyncScheduler{}
	}
	if lr, ok := cfg.Scheduler.(linkReserver); ok {
		lr.reserveLinks(2 * cfg.Graph.NumEdges())
	}
	return runRounds(cfg, false)
}
