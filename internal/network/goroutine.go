package network

// goroutineEngine runs every player in its own goroutine with a round
// barrier — the natural Go embedding of a synchronous distributed node —
// on the shared round loop (see runRounds).
type goroutineEngine struct{}

// Name implements Engine.
func (goroutineEngine) Name() string { return EngineGoroutine }

// Run implements Engine. Delivery is strictly synchronous, so any Scheduler
// left in the config is cleared before the run state is built.
func (e goroutineEngine) Run(cfg Config) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Engine == nil {
		cfg.Engine = e
	}
	cfg.Scheduler = nil
	return runRounds(cfg, true)
}
