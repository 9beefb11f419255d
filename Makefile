# Convenience targets around the go toolchain — the source of truth for the
# tier-1 verification flow referenced by ROADMAP.md.

GO ?= go

.PHONY: tier1 test race bench benchjson benchguard benchsnap allocguard benchvet vet attacksweep schedfuzz mafuzz churnfuzz smtfuzz fuzzsmoke cover loadtest daemonsmoke fleetsmoke watchsmoke

# tier1 is the gate every PR must keep green: build + full test suite +
# vet + gofmt-clean sources + race detector on the packages that spawn
# goroutines or share state across them (the network engines' shared round
# loop, the parallel experiment harness, the protocol registry, the
# Byzantine strategy library, the attack sweep that fans trials out across
# workers, the wire engine's coordinator/child plumbing, the sharded query
# daemon, the instance's lazily built Z_v and canonical key, which
# concurrent run trials reach first together, RMT-PKA's per-instance warm
# store, which every PKA run on an instance shares, and the 𝒵-CPA
# deciders — selfred's Π-simulating one included — that goroutine-engine
# players share).
tier1:
	$(GO) build ./...
	$(GO) test ./...
	$(GO) vet ./...
	test -z "$$(gofmt -l $$(git ls-files '*.go'))"
	$(GO) test -race ./internal/network/ ./internal/eval/ ./internal/protocol/ ./internal/byzantine/ ./internal/attack/ ./internal/server/ ./internal/wire/ ./internal/feasibility/ ./internal/mbrb/ ./internal/smt/ ./internal/instance/ ./internal/selfred/ ./internal/zcpa/ ./internal/core/

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

bench:
	$(GO) test -bench=. -benchmem -run=^$$ .

# Machine-readable protocol micro-benchmarks (ns/op, B/op, allocs/op).
benchjson:
	$(GO) run ./cmd/rmtbench -benchjson BENCH.json

# Opt-in perf regression guard: re-run the micro-benchmarks and fail when
# any is > 25% slower than the committed BENCH.json baseline. Not part of
# tier1 — benchmark numbers are too machine-sensitive to gate every PR.
benchguard:
	$(GO) run ./cmd/rmtbench -compare BENCH.json

# Allocation-only hot-path guards. Unlike wall-clock numbers, allocation
# counts are deterministic, so these DO gate every PR — they run as
# ordinary tests inside `go test ./...` (and therefore inside tier1); the
# named target runs every *AllocBudget and *BytesBudget test alone: every
# protocol benchmark row (TestProtocolAllocBudget), warm on a shared
# instance and cold on a fresh one, the cut searches (a solvable one that
# walks every side included), the connected-set walk, the walk that must
# not step into sets whose boundary holds the dealer (no frame chunk for
# their depths), parse + build + CanonicalKey at every knowledge level, a
# one-edge delta at ad hoc and radius 1 (only the views it reaches are
# built, in a fixed handful of allocations), the bytes of one /v1/watch
# subscription and the allocations of one of its revisions (a delta, its
# chain key and one cut check on kept scratch; an event only when
# written), the decode of a feasibility-hot body (one allocation per string
# field), a /v1/feasibility cache hit (the same count at every knowledge
# level: no view and no canonical text), and an async run under the fifo
# and lifo schedules (per-link state in one table, reserved for the
# graph's links, no map).
allocguard:
	$(GO) test -run 'AllocBudget|BytesBudget' -count=1 . ./internal/graph/ ./internal/server/ ./internal/network/

# The steady rmtd benchmark (rmtdbench/, run by `bash rmtdbench/run.sh`) is
# its own Go module, so the root `go build ./...` and `go vet ./...` never
# compile it. Vet it offline so an exported-API change in core, zcpa or
# server fails here instead of breaking the benchmark.
benchvet:
	cd rmtdbench && GOPROXY=off GOFLAGS= $(GO) vet ./...

# Per-PR benchmark snapshot: BENCH_<pr>.json next to the rolling BENCH.json
# baseline, so the perf trajectory accumulates one point per PR (CI archives
# the file as a build artifact). Usage: make benchsnap PR=5
PR ?= dev
benchsnap:
	$(GO) run ./cmd/rmtbench -benchjson BENCH_$(PR).json

# Randomized Theorem-4 safety fuzzer: 200 seeded trials across every
# registered protocol × every registered Byzantine strategy × both
# engines, with a gullible canary proving the oracle can fail. Attack
# traces stream as JSONL to attack-traces.jsonl.
attacksweep:
	$(GO) run ./cmd/rmtattack -trials 200 -seed 1 -out attack-traces.jsonl

# Seeded schedule fuzzer: the same Theorem-4 oracle crossed with every
# async delivery schedule (delay, reorder, FIFO, last-writer-first,
# partition-then-heal). Every (instance, protocol, strategy) cell runs once
# per schedule under a per-trial seeded scheduler, the zero-fault schedule
# must be transcript-identical to lockstep, and any violation replays from
# (seed, trial) alone. Traces stream to sched-traces.jsonl.
schedfuzz:
	$(GO) run ./cmd/rmtattack -trials 100 -seed 2 -engines lockstep -schedules all -out sched-traces.jsonl

# Message-adversary fuzzer: the Theorem-4 oracle crossed with seeded
# suppression. Every (instance, protocol, strategy) cell runs once per
# (budget × stock policy) under lockstep and once per (budget × schedule)
# under the async engine with the seeded random policy — safety must hold
# under message loss, Sent = Delivered + Lost must reconcile, and the
# gullible MBRB canary (no distinct-sender quorum counting) must be
# flagged. Any violation replays from (seed, trial) alone; traces stream
# to ma-traces.jsonl.
mafuzz:
	$(GO) run ./cmd/rmtattack -trials 60 -seed 4 -engines lockstep -schedules all -mabudgets 1,2 -out ma-traces.jsonl

# Load-test the rmtd query daemon in-process: 200 concurrent in-flight
# requests over a repeating workload must complete with zero dropped
# connections and zero 5xx, the canonical-instance cache must absorb the
# repetition (hit ratio > 0.5), and equal requests must get byte-identical
# bodies from 1-worker and 8-worker daemons.
loadtest:
	$(GO) run ./cmd/rmtload -concurrency 200 -requests 4000

# CI-sized daemon smoke: the same assertions at a few dozen requests.
daemonsmoke:
	$(GO) run ./cmd/rmtload -smoke

# Churn-schedule fuzzer, two scaled-up tier-1 differentials. First,
# incremental ≡ fresh across every feasibility fixture × CHURN_CHAINS
# seeded random delta chains of CHURN_STEPS single edits each: every
# revision's incremental RMT-cut and 𝒵-pp-cut verdicts (and verified
# witnesses) must match a from-scratch search, and at ad hoc knowledge the
# two checkers must agree on verdict, witness and repaired/fresh counts
# (one checker answers both in rmtd). Second, cutsearch's own
# differential over CHURN_CHAINS random-instance chains: both
# instantiations of cutsearch.Incremental must match the reference
# repair-then-search flow down to witnesses and repaired/fresh counts.
CHURN_CHAINS ?= 400
CHURN_STEPS  ?= 8
churnfuzz:
	CHURN_CHAINS=$(CHURN_CHAINS) CHURN_STEPS=$(CHURN_STEPS) \
		$(GO) test ./internal/feasibility/ -run TestIncrementalMatchesFreshAcrossChurn -count=1 -v
	CHURN_CHAINS=$(CHURN_CHAINS) \
		$(GO) test ./internal/cutsearch/ -run TestIncrementalMatchesReference -count=1 -v

# SMT fuzzer: the secure-transmission differential at scale. SMT_TRIALS
# seeded random (graph, 𝒵, ℒ) triples must agree between the Dowden-style
# feasibility predicate and the smt protocol's plan construction, and the
# privacy battery (honest smt clean, canary-smt-leaky flagged) re-runs on
# top — the predicate, the protocol and the oracle cross-check each other.
SMT_TRIALS ?= 4000
smtfuzz:
	SMT_TRIALS=$(SMT_TRIALS) \
		$(GO) test ./internal/smt/ -run TestNewPlanAgreesWithFeasible -count=1 -v
	$(GO) test ./internal/attack/ -run 'TestPrivacyBattery|TestPrivacyOracle' -count=1 -v

# CI-sized watch smoke: subscribe to POST /v1/watch on an in-process daemon,
# push a scripted 3-delta churn history, and require exactly the
# verdict-change events (rev 0, the flip to unsolvable, the flip back).
watchsmoke:
	$(GO) run ./cmd/rmtload -watch

# CI-sized fleet smoke: 3 in-process rmtd shards behind the consistent-hash
# router. Drives the workload through the router (0 drops, all 2xx), then
# hits every shard directly and requires the non-owners to serve the owning
# peer's cached bytes — cross-shard peer cache hits > 0, all replies
# byte-identical to the router's. Then subscribes the watch smoke's history
# through the router and directly at each shard: the four streams must be
# identical line for line.
fleetsmoke:
	$(GO) run ./cmd/rmtload -fleet -smoke

# Short coverage-guided fuzz smokes, one per native fuzz target: the text
# parsers (instance spec, adversary structure, node set, edge list — the
# last against the field-at-a-time reference parser), every
# cut condition on the kernel against its reference (one decoded byte picks
# Definitions 3 and 7 — verdicts, witnesses, completeness and both
# verifiers —, Definition 10, PPA's pair cut, or the adversary cover over
# decoded claims), delta application (Validate and Apply agree, and every
# applied delta keys like a fresh build of the edited tuple), the
# word-level key writer and the indexed Z_v on decoded tuples (dense or
# spread IDs, every level) against the reference text and restriction, the
# parts key against the canonical key (equal exactly when they are, on
# respelled and edited tuples at every level), the engine's run state
# (every inbox in sender-then-key order under every
# schedule, metrics that reconcile, and a run on spread IDs equal by rank
# to the run on IDs 0..n-1), the delta writer behind ChainKey against the
# reference text and key, rmtd's /v1/run and /v1/feasibility bodies (every
# answer a 200, a 400 or — feasibility, under a 1 KiB limit — a 413 with a
# JSON body), whole /v1/watch streams (a 400 with a JSON body, or revision
# events in order with keys, witnesses and ad hoc zcpa verdicts that match
# a replay, then at most one error line), rmtd's plain request reader
# against encoding/json (the same value and error text for every input and
# each of the four request shapes), and the wire engine's two decoders of
# what crosses its sockets: the payload envelope (no panic on any ID, and
# an accepted envelope re-encodes to its kind and key) and the frame reader
# (no panic, and an accepted frame consumes exactly its declared length),
# seeded from a real wire run's frames.
fuzzsmoke:
	$(GO) test ./internal/cliutil/ -run=^$$ -fuzz=FuzzParseInstanceSpec -fuzztime=10s
	$(GO) test ./internal/cliutil/ -run=^$$ -fuzz=FuzzParseStructure -fuzztime=10s
	$(GO) test ./internal/cliutil/ -run=^$$ -fuzz=FuzzParseNodeSet -fuzztime=10s
	$(GO) test ./internal/graph/ -run=^$$ -fuzz=FuzzParseEdgeList -fuzztime=10s
	$(GO) test ./internal/cutsearch/ -run=^$$ -fuzz=FuzzCutSearchMatchesReference -fuzztime=10s
	$(GO) test ./internal/instance/ -run=^$$ -fuzz=FuzzApplyDelta -fuzztime=10s
	$(GO) test ./internal/instance/ -run=^$$ -fuzz=FuzzCanonicalKeyMatchesReference -fuzztime=10s
	$(GO) test ./internal/instance/ -run=^$$ -fuzz=FuzzPartsKeyMatchesCanonicalKey -fuzztime=10s
	$(GO) test ./internal/instance/ -run=^$$ -fuzz=FuzzChainKeyMatchesReference -fuzztime=10s
	$(GO) test ./internal/network/ -run=^$$ -fuzz=FuzzRunStateOrder -fuzztime=10s
	$(GO) test ./internal/server/ -run=^$$ -fuzz=FuzzRunRequest -fuzztime=10s
	$(GO) test ./internal/server/ -run=^$$ -fuzz=FuzzWatchStream -fuzztime=10s
	$(GO) test ./internal/server/ -run=^$$ -fuzz=FuzzFeasibilityRequest -fuzztime=10s
	$(GO) test ./internal/server/ -run=^$$ -fuzz=FuzzDecodeMatchesReference -fuzztime=10s
	$(GO) test ./internal/wire/ -run=^$$ -fuzz=FuzzDecodePayload -fuzztime=10s
	$(GO) test ./internal/wire/ -run=^$$ -fuzz=FuzzReadFrame -fuzztime=10s

# Per-package coverage with a repo-level floor. The threshold gates total
# statement coverage across every package, example mains included — the
# floor is set with their 0% already priced in (the library total sits
# around 87%), so a drop below it means real coverage regressed.
COVER_THRESHOLD ?= 75.0
cover:
	$(GO) test -coverprofile=coverage.out -covermode=atomic ./...
	$(GO) tool cover -func=coverage.out | tail -n 25
	@total=$$($(GO) tool cover -func=coverage.out | awk '/^total:/ {sub(/%/,"",$$3); print $$3}'); \
	echo "total coverage: $$total% (threshold $(COVER_THRESHOLD)%)"; \
	awk -v t="$$total" -v min="$(COVER_THRESHOLD)" 'BEGIN { exit (t+0 >= min+0) ? 0 : 1 }' \
		|| { echo "coverage $$total% is below threshold $(COVER_THRESHOLD)%"; exit 1; }
