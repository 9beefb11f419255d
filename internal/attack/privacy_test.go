package attack

import (
	"strings"
	"testing"
)

// TestPrivacyBatteryHonestAndCanary runs the battery standalone across
// schedules and suppression budgets: the honest protocol must come out
// clean, and the leaky canary must be flagged — in every configuration
// class, or the oracle's coverage is narrower than it claims.
func TestPrivacyBatteryHonestAndCanary(t *testing.T) {
	rep := &Report{Canaries: map[string]CanaryTally{}}
	cfg := Config{Seed: 3, Schedules: []string{"sync", "random"}, MABudgets: []int{1}}
	if err := runPrivacyBattery(cfg, rep); err != nil {
		t.Fatal(err)
	}
	if rep.PrivacyRuns == 0 {
		t.Fatal("privacy battery ran nothing")
	}
	for _, v := range rep.PrivacyViolations {
		t.Errorf("honest smt flagged: %s", v)
	}
	leaky := rep.Canaries[leakyCanaryName]
	if leaky.Runs == 0 || leaky.Flagged == 0 {
		t.Fatalf("leaky canary: %d/%d flagged — the privacy oracle has no teeth",
			leaky.Flagged, leaky.Runs)
	}
	// Every cell pairs one honest run set with one canary run set, so equal
	// counts mean the canary rode through the full configuration matrix.
	if leaky.Runs != rep.PrivacyRuns {
		t.Fatalf("canary runs %d != privacy runs %d: batteries diverged", leaky.Runs, rep.PrivacyRuns)
	}
}

// TestPrivacyOracleInSummary: the sweep-level report surfaces the privacy
// counts and fails loudly when the canary goes unflagged.
func TestPrivacyOracleInSummary(t *testing.T) {
	rep := &Report{Canaries: map[string]CanaryTally{leakyCanaryName: {Runs: 4}}}
	if err := rep.Err(); err == nil || !strings.Contains(err.Error(), leakyCanaryName+" survived 4 runs undetected") {
		t.Fatalf("unflagged canary not fatal: %v", err)
	}
	rep = &Report{PrivacyViolations: []PrivacyViolation{{Protocol: "smt", Detail: "x"}}}
	if err := rep.Err(); err == nil || !strings.Contains(err.Error(), "privacy violations") {
		t.Fatalf("privacy violations not fatal: %v", err)
	}
	rep = &Report{Canaries: map[string]CanaryTally{leakyCanaryName: {Runs: 4, Flagged: 2}}}
	if s := rep.Summary(); !strings.Contains(s, "privacy") || !strings.Contains(s, "2/4 "+leakyCanaryName+" runs") {
		t.Fatalf("summary omits the privacy battery: %s", s)
	}
}
