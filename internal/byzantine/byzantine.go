// Package byzantine is the adversary library: named attack strategies that
// corrupt players of any protocol run. A corrupted player is just a
// network.Process with arbitrary behavior, so strategies range from
// protocol-agnostic nuisances (protocol.Silence, Spammer, Replayer) to
// protocol-aware attacks built on the RMT message vocabularies
// (Equivocator, PathForger, ViewLiar, Eclipser), plus the legacy Forger
// constructions that stay in internal/core. All of them self-register in a strategy registry mirroring
// internal/protocol's, so the safety fuzzer, the CLI and the examples
// enumerate one shared zoo.
package byzantine

import (
	"fmt"

	"rmt/internal/network"
	"rmt/internal/nodeset"
)

// NoisePayload is junk traffic sent by the Spammer. Its fields are exported
// so engines that marshal payloads across process boundaries (the wire
// engine's codec) can re-encode it; the canonical Key derives entirely from
// them, so a decoded copy is indistinguishable from the original.
type NoisePayload struct {
	From  int
	Round int
	Seq   int
}

// BitSize implements network.Payload. It is derived from the canonical
// encoding so the metrics stream charges the spammer for exactly the bits
// it puts on the wire, whatever the field widths happen to be.
func (p NoisePayload) BitSize() int { return 8 * len(p.Key()) }

// Key implements network.Payload.
func (p NoisePayload) Key() string { return fmt.Sprintf("noise(%d,%d,%d)", p.From, p.Round, p.Seq) }

// Spammer floods its neighbors with junk payloads every round, exercising
// protocol robustness to erroneous messages (the paper's "messages of
// different form, which we call erroneous").
type Spammer struct {
	ID        int
	Neighbors nodeset.Set
	PerRound  int // messages per neighbor per round; default 1
}

// Init implements network.Process.
func (s *Spammer) Init(out network.Outbox) { s.burst(0, out) }

// Round implements network.Process.
func (s *Spammer) Round(round int, _ []network.Message, out network.Outbox) bool {
	s.burst(round, out)
	return true
}

func (s *Spammer) burst(round int, out network.Outbox) {
	per := s.PerRound
	if per <= 0 {
		per = 1
	}
	s.Neighbors.ForEach(func(u int) bool {
		for i := 0; i < per; i++ {
			out(u, NoisePayload{From: s.ID, Round: round, Seq: i})
		}
		return true
	})
}

// Decision implements network.Process.
func (*Spammer) Decision() (network.Value, bool) { return "", false }

// Replayer echoes back to every neighbor each payload it receives, with one
// round of delay — a cheap "confusion" adversary that reuses well-formed
// protocol messages in wrong contexts. Each distinct payload (by Key) is
// replayed at most once: without the dedup, two adjacent Replayers re-echo
// each other's echoes forever and the run never quiesces.
type Replayer struct {
	Neighbors nodeset.Set

	seen map[string]bool
}

// Init implements network.Process.
func (*Replayer) Init(network.Outbox) {}

// Round implements network.Process.
func (r *Replayer) Round(_ int, inbox []network.Message, out network.Outbox) bool {
	for _, m := range inbox {
		key := m.Payload.Key()
		if r.seen[key] {
			continue
		}
		if r.seen == nil {
			r.seen = make(map[string]bool)
		}
		r.seen[key] = true
		r.Neighbors.ForEach(func(u int) bool {
			out(u, m.Payload)
			return true
		})
	}
	return true
}

// Decision implements network.Process.
func (*Replayer) Decision() (network.Value, bool) { return "", false }
