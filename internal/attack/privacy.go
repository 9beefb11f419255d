// The privacy battery: the listening-adversary counterpart of the Theorem-4
// safety oracle. It runs the SMT protocol on a fixed feasible fixture with a
// listening coalition corrupted by the recording strategies, twice per cell —
// once per secret of a same-length pair — and asserts that the coalition's
// recorded view is independent of which secret was transmitted:
//
//   - the coalition never observes every share index (a full view would XOR
//     back to the secret);
//   - when the secret-dependent share stayed out of earshot, the two paired
//     views are byte-identical — the heard shares are pure pads;
//   - no recorded payload contains the secret, raw or hex-encoded.
//
// The oracle's teeth are checked the same way as the safety canaries: a
// deliberately leaky SMT variant (the dealer ships the plaintext secret as
// every "share") runs through the same battery and the sweep fails unless it
// is flagged.
package attack

import (
	"encoding/hex"
	"fmt"
	"strings"

	"rmt/internal/adversary"
	"rmt/internal/byzantine"
	"rmt/internal/eval"
	"rmt/internal/gen"
	"rmt/internal/instance"
	"rmt/internal/network"
	"rmt/internal/nodeset"
	"rmt/internal/protocol"
	"rmt/internal/smt"
)

// The paired secrets. Same length by construction — the pads are
// length-keyed, so paired views are only comparable for equal-length secrets.
const (
	privacyX0 = "privacy-secret-alpha"
	privacyX1 = "privacy-secret-omega"
)

// PrivacyViolation is one observed breach of SMT's secrecy guarantee: a
// listening coalition's recorded view depended on (or contained) the secret.
type PrivacyViolation struct {
	Protocol string `json:"protocol"`
	Listen   []int  `json:"listen"`
	Variant  string `json:"variant"`
	Engine   string `json:"engine"`
	Detail   string `json:"detail"`
}

func (v PrivacyViolation) String() string {
	return fmt.Sprintf("%s under %s on %v (%s): %s", v.Protocol, v.Variant, v.Listen, v.Engine, v.Detail)
}

// runPrivacyBattery executes the battery and folds its counts into rep.
func runPrivacyBattery(cfg Config, rep *Report) error {
	g, d, r := gen.DisjointPaths(3, 1)
	in, err := instance.AdHoc(g, gen.Singletons(nodeset.Of(1)), d, r)
	if err != nil {
		return fmt.Errorf("attack: privacy fixture: %w", err)
	}
	listen := adversary.FromSlices([]int{2}, []int{3})
	plan, err := smt.NewPlan(in, listen)
	if err != nil {
		return fmt.Errorf("attack: privacy fixture is not SMT-feasible: %w", err)
	}
	full := nodeset.Empty()
	for i := range plan.Paths {
		full = full.Add(i)
	}

	// Paired runs share the cell, including every seed, so the only
	// difference between the two runs is the secret itself.
	cells := []cell{{Cell: protocol.Cell{Engine: network.Lockstep}}}
	for i, sched := range cfg.Schedules {
		cells = append(cells, cell{Cell: protocol.Cell{Engine: network.Async,
			Schedule: sched, SchedSeed: eval.TrialSeed(cfg.Seed, 5000+i, 0)}})
	}
	for i, d := range cfg.MABudgets {
		cells = append(cells, cell{Cell: protocol.Cell{Engine: network.Lockstep,
			MAPolicy: network.MARandom, MABudget: d, MASeed: eval.TrialSeed(cfg.Seed, 5500+i, 0)}})
	}

	protos := []protocol.Protocol{smt.Proto{}, leakySMTProto{}}
	variants := []struct {
		name    string
		forward bool
	}{
		{byzantine.ListenerName, true},
		{byzantine.ListenerQuietName, false},
	}
	secrets := []network.Value{privacyX0, privacyX1}

	var leaky CanaryTally
	for _, coalition := range listen.Maximal() {
		if coalition.IsEmpty() {
			continue
		}
		for _, variant := range variants {
			for _, c := range cells {
				for _, proto := range protos {
					var (
						views   [2]string
						indices [2]nodeset.Set
					)
					for s, secret := range secrets {
						log := &byzantine.ListenLog{}
						opts, err := c.Options()
						if err != nil {
							return fmt.Errorf("attack: privacy battery: %w", err)
						}
						opts.MaxRounds, opts.Listen, opts.Seed = 32, listen, 42
						opts.Corrupt = byzantine.NewListeners(coalition, log, variant.forward)
						if _, err := protocol.Run(proto, in, secret, opts); err != nil {
							return fmt.Errorf("attack: privacy battery %s/%s/%s: %w",
								proto.Name(), variant.name, c.label(), err)
						}
						views[s], indices[s] = log.View(), log.ShareIndices()
					}

					var details []string
					for s := range secrets {
						if indices[s].Equal(full) {
							details = append(details,
								fmt.Sprintf("coalition observed every share index %v — the view XORs back to the secret", full))
							break
						}
					}
					// Suppression is payload-keyed, so under a message
					// adversary the paired delivered sets may legitimately
					// differ; the view-equality oracle applies to loss-free
					// cells only.
					dep := plan.Dependent()
					if c.MAPolicy == "" && !indices[0].Contains(dep) && !indices[1].Contains(dep) && views[0] != views[1] {
						details = append(details,
							"paired views differ though the secret-dependent share was never heard")
					}
					for s, secret := range secrets {
						raw := string(secret)
						if strings.Contains(views[s], raw) || strings.Contains(views[s], hex.EncodeToString([]byte(raw))) {
							details = append(details, fmt.Sprintf("recorded view of run %d contains the secret", s))
							break
						}
					}

					if proto.Name() == leakyCanaryName {
						leaky.Runs += len(secrets)
						if len(details) > 0 {
							leaky.Flagged++
						}
						continue
					}
					rep.PrivacyRuns += len(secrets)
					for _, detail := range details {
						rep.PrivacyViolations = append(rep.PrivacyViolations, PrivacyViolation{
							Protocol: proto.Name(),
							Listen:   members(coalition),
							Variant:  variant.name,
							Engine:   c.label(),
							Detail:   detail,
						})
					}
				}
			}
		}
	}
	rep.Canaries[leakyCanaryName] = leaky
	return nil
}

// leakyCanaryName is the privacy battery's unsafe-protocol name. Like the
// other canaries it is deliberately NOT in the protocol registry: it exists
// only to prove the privacy oracle has teeth.
const leakyCanaryName = "canary-smt-leaky"

// leakySMTProto is the honest SMT assembly with the dealer swapped for one
// that ships the plaintext secret as every "share" — reliability intact,
// privacy absent. Every listening coalition on any share path records a
// secret-dependent view, which the battery must flag.
type leakySMTProto struct{}

func (leakySMTProto) Name() string        { return leakyCanaryName }
func (leakySMTProto) Caps() protocol.Caps { return protocol.Caps{HonestPaths: true} }

func (leakySMTProto) Assemble(in *instance.Instance, xD network.Value, opts protocol.Options) (map[int]network.Process, error) {
	plan, err := smt.NewPlan(in, opts.Listen)
	if err != nil {
		return nil, err
	}
	procs := smt.NewProcesses(in, plan, xD, opts.Seed, opts.Corrupt)
	procs[in.Dealer] = &leakyDealer{plan: plan, x: xD}
	return procs, nil
}

// leakyDealer sends hex(secret) down every path instead of XOR shares.
type leakyDealer struct {
	plan smt.Plan
	x    network.Value
}

// Init implements network.Process.
func (d *leakyDealer) Init(out network.Outbox) {
	leak := hex.EncodeToString([]byte(d.x))
	for i, p := range d.plan.Paths {
		out(p[1], smt.ShareMsg{Idx: i, P: p, X: leak})
	}
}

// Round implements network.Process.
func (*leakyDealer) Round(int, []network.Message, network.Outbox) bool { return false }

// Decision implements network.Process.
func (*leakyDealer) Decision() (network.Value, bool) { return "", false }
