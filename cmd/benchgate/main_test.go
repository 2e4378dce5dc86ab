package main

import (
	"strings"
	"testing"
)

func mkResults(name string, seedsPerHour float64) []result {
	return []result{{Name: name, NsPerOp: 1e6, Metrics: map[string]float64{"seeds/hour": seedsPerHour}}}
}

// TestRegressionGateStillWorks drives evalGates through a higher-is-better
// gate: pass within budget, fail past it, and warn (not fail) whenever
// either side of the comparison is missing.
func TestRegressionGateStillWorks(t *testing.T) {
	g := gate{name: "BenchmarkFleet", metric: "seeds/hour", budget: 20, higher: true}
	base := mkResults("BenchmarkFleet", 20000)

	cases := []struct {
		name     string
		base     []result
		baseOK   bool
		cur      []result
		wantFail bool
		wantSub  string
	}{
		{"within budget", base, true, mkResults("BenchmarkFleet", 17000), false, "ok"},
		{"past budget", base, true, mkResults("BenchmarkFleet", 15000), true, "FAIL"},
		{"baseline bench missing", mkResults("Other", 1), true, mkResults("BenchmarkFleet", 1), false, "baseline missing"},
		{"baseline file missing", nil, false, mkResults("BenchmarkFleet", 1), false, "baseline missing"},
		{"current bench missing", base, true, mkResults("Other", 1), false, "current missing"},
		{"zero baseline", mkResults("BenchmarkFleet", 0), true, mkResults("BenchmarkFleet", 1), false, "baseline is zero"},
	}
	for _, tc := range cases {
		var out strings.Builder
		fail := evalGates(&out, tc.base, tc.baseOK, tc.cur, []gate{g})
		if fail != tc.wantFail {
			t.Errorf("%s: fail = %v, want %v\n%s", tc.name, fail, tc.wantFail, out.String())
		}
		if !strings.Contains(out.String(), tc.wantSub) {
			t.Errorf("%s: output missing %q:\n%s", tc.name, tc.wantSub, out.String())
		}
	}
}
