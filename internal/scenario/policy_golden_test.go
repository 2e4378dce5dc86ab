package scenario

import (
	"testing"

	"wheels/internal/campaign"
	"wheels/internal/dataset"
	"wheels/internal/radio"
	"wheels/internal/ran"
)

// randomPolicyDigest is HashSink.Sum of the seed-23 DefaultConfig campaign,
// first 60 km, on the compiled random:7 scenario with the "sticky" handover
// policy on every operator. It is committed, never regenerated: it pins the
// procedural scenario compile path and the config-driven handover path,
// which the paper-scenario goldens do not reach.
const randomPolicyDigest = "6859276e8dbb233c83e0cfc79e72e57547b41e4d28435045b9814ff1feaf8259"

// stickyPolicy is the CI sweep smoke grid's "sticky" policy: wider
// hysteresis and a slower evaluation cadence than the operator default.
func stickyPolicy(op radio.Operator) ran.HandoverConfig {
	cfg := ran.DefaultHandoverConfig(op)
	cfg.HysteresisFrac = 0.20
	cfg.EvalMinSec, cfg.EvalMaxSec = 14, 24
	return cfg
}

// TestGoldenRandomScenarioPolicy pins a non-paper scenario under a
// non-default handover policy with every battery on. It has no -update
// path: a mismatch means the simulator's output changed. The run takes
// well under a second, so it also runs under -short.
func TestGoldenRandomScenarioPolicy(t *testing.T) {
	sc, err := Resolve("random:7")
	if err != nil {
		t.Fatal(err)
	}
	tb, err := sc.Compile()
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range radio.Operators() {
		tb.Handover[op] = stickyPolicy(op)
		if err := tb.Handover[op].Validate(); err != nil {
			t.Fatalf("%s: %v", op, err)
		}
		if tb.Handover[op].IsDefault(op) {
			t.Fatalf("%s: sticky policy equals the default", op)
		}
	}
	cfg := campaign.DefaultConfig(23)
	cfg.KmLimit = 60

	h := dataset.NewHashSink()
	col := dataset.NewCollector(cfg.Seed)
	campaign.NewWithTestbed(cfg, tb).RunTo(dataset.Tee(h, col))
	if err := h.Flush(); err != nil {
		t.Fatal(err)
	}

	ds := col.Dataset()
	var static, speed int
	for _, s := range ds.Tests {
		if s.Static {
			static++
		}
		if s.Kind == dataset.TestSpeed {
			speed++
		}
	}
	if static == 0 || speed == 0 || len(ds.Apps) == 0 || len(ds.Passive) == 0 {
		t.Fatalf("campaign too short to cover every battery: %d static tests, %d speed tests, %d app runs, %d passive samples",
			static, speed, len(ds.Apps), len(ds.Passive))
	}
	if got := h.Sum(); got != randomPolicyDigest {
		t.Errorf("random:7 sticky-policy seed-23 digest = %s, want %s", got, randomPolicyDigest)
	}
}
