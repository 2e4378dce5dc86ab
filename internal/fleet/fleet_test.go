package fleet

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"wheels/internal/campaign"
	"wheels/internal/dataset"
	"wheels/internal/scenario"
)

// testConfig is a small three-seed fleet over the route's first 40 km.
func testConfig(checkpoint string) Config {
	return Config{
		Base:       campaign.QuickConfig(0, 40),
		StartSeed:  23,
		Seeds:      3,
		Workers:    3,
		Checkpoint: checkpoint,
	}
}

func renderedReport(t *testing.T, cfg Config) string {
	t.Helper()
	rep, err := Run(cfg)
	if err != nil {
		t.Fatalf("fleet.Run: %v", err)
	}
	return rep.RenderText()
}

func TestFleetDeterministicAcrossWorkerCounts(t *testing.T) {
	cfg := testConfig("")
	base := renderedReport(t, cfg)
	cfg.Workers = 1
	if serial := renderedReport(t, cfg); serial != base {
		t.Error("worker count changed the rendered fleet report")
	}
	if len(base) == 0 || !strings.Contains(base, "seed 23") {
		t.Fatalf("report looks wrong:\n%s", base)
	}
}

// TestFleetCheckpointResume is the crash-resume contract: kill a fleet
// after some seeds completed (simulated by truncating the checkpoint,
// including a torn final line), re-run with the same flags, and the final
// report must be byte-identical while the completed seeds are skipped.
func TestFleetCheckpointResume(t *testing.T) {
	dir := t.TempDir()
	ck := filepath.Join(dir, "fleet.jsonl")

	cfg := testConfig(ck)
	full := renderedReport(t, cfg)

	// The checkpoint now holds all three seeds. Keep the first two lines
	// and append a torn partial record — the file a mid-write kill leaves.
	b, err := os.ReadFile(ck)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(b), "\n")
	if len(lines) < 3 {
		t.Fatalf("checkpoint has %d lines, want >= 3", len(lines))
	}
	truncated := lines[0] + lines[1] + `{"seed":25,"shards":1,"ops":{"V":{"drive_dl`
	if err := os.WriteFile(ck, []byte(truncated), 0o644); err != nil {
		t.Fatal(err)
	}

	// First resume: the torn seed re-runs and appends after the fragment.
	if first := renderedReport(t, cfg); first != full {
		t.Error("first resume after the torn write differs from the uninterrupted run")
	}
	// Second resume: all three seeds now load from the repaired checkpoint.

	var events []Event
	cfg.Progress = func(ev Event) { events = append(events, ev) }
	resumed := renderedReport(t, cfg)
	if resumed != full {
		t.Errorf("resumed report differs from the uninterrupted run:\n--- full ---\n%s\n--- resumed ---\n%s", full, resumed)
	}
	reused, reran := 0, 0
	for _, ev := range events {
		if ev.Resumed {
			reused++
		} else {
			reran++
		}
	}
	if reused != 3 || reran != 0 {
		t.Errorf("second resume reused %d and re-ran %d seeds, want 3 and 0 (the first resume repaired the torn line)", reused, reran)
	}

	// A checkpoint does not change the report vs a checkpoint-free run.
	if noCk := renderedReport(t, testConfig("")); noCk != full {
		t.Error("checkpointed and checkpoint-free fleets rendered different reports")
	}
}

// TestCheckpointSkipsShardedRows: a row written by the route-sharded
// engine older builds offered ("shards" above 1) describes a different
// dataset. The decoder drops it before dedup, so a later serial row for
// the same seed is the one kept, and Run resumes that row instead of
// re-running the seed and appending yet another.
func TestCheckpointSkipsShardedRows(t *testing.T) {
	ck := filepath.Join(t.TempDir(), "fleet.jsonl")
	cfg := testConfig(ck)
	cfg.Seeds = 1
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(ck)
	if err != nil {
		t.Fatal(err)
	}
	line := func(shards int, sha string) []byte {
		var row map[string]any
		if err := json.Unmarshal(b, &row); err != nil {
			t.Fatal(err)
		}
		row["shards"] = shards
		row["dataset_sha256"] = sha
		out, err := json.Marshal(row)
		if err != nil {
			t.Fatal(err)
		}
		return append(out, '\n')
	}
	content := append(line(2, "sharded"), line(1, "serial")...)
	if err := os.WriteFile(ck, content, 0o644); err != nil {
		t.Fatal(err)
	}

	sums, err := LoadCheckpoint(ck)
	if err != nil {
		t.Fatal(err)
	}
	if got := sums[SeedKey{Scenario: "paper", Seed: 23}].DatasetSHA256; got != "serial" || len(sums) != 1 {
		t.Fatalf("kept seed 23 row with hash %q (%d rows), want the serial row", got, len(sums))
	}

	cfg.Progress = func(ev Event) {
		if !ev.Resumed {
			t.Errorf("seed %d re-ran instead of resuming the serial row", ev.Seed)
		}
	}
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	if after, err := os.ReadFile(ck); err != nil || !bytes.Equal(after, content) {
		t.Errorf("resume rewrote the checkpoint (err %v)", err)
	}
}

// sweepScenarios compiles three library scenarios the way cmd/fleet does —
// the fleet package itself never imports internal/scenario, so this is also
// the integration check that the compile API carries everything a sweep
// needs (testbed, thresholds, schedule hook).
func sweepScenarios(t *testing.T, names ...string) []Scenario {
	t.Helper()
	var out []Scenario
	for _, name := range names {
		sc := scenario.MustLoad(name)
		out = append(out, Scenario{
			Name:      sc.Name(),
			Testbed:   sc.MustCompile(),
			Shapes:    sc.ShapeParams(),
			Configure: sc.ApplySchedule,
		})
	}
	return out
}

// sweepConfig is a 3-scenario × 2-seed sweep over short campaigns.
func sweepConfig(t *testing.T, checkpoint string) Config {
	cfg := testConfig(checkpoint)
	cfg.Seeds = 2
	cfg.Scenarios = sweepScenarios(t, "paper", "dense-urban", "commuter-loop")
	return cfg
}

func TestFleetScenarioSweep(t *testing.T) {
	cfg := sweepConfig(t, "")
	rep, err := Run(cfg)
	if err != nil {
		t.Fatalf("fleet.Run: %v", err)
	}
	if len(rep.Summaries) != 6 {
		t.Fatalf("sweep produced %d summaries, want 6", len(rep.Summaries))
	}
	// Summaries group by sweep order, seeds ascending within a scenario.
	wantOrder := []SeedKey{
		{Scenario: "paper", Seed: 23}, {Scenario: "paper", Seed: 24},
		{Scenario: "dense-urban", Seed: 23}, {Scenario: "dense-urban", Seed: 24},
		{Scenario: "commuter-loop", Seed: 23}, {Scenario: "commuter-loop", Seed: 24},
	}
	for i, want := range wantOrder {
		s := rep.Summaries[i]
		if s.Scenario != want.Scenario || s.Seed != want.Seed {
			t.Errorf("summary[%d] = (%s, %d), want %v", i, s.Scenario, s.Seed, want)
		}
	}
	// Different routes must actually produce different data.
	if rep.Summaries[0].DatasetSHA256 == rep.Summaries[2].DatasetSHA256 {
		t.Error("paper and dense-urban seed 23 produced identical datasets")
	}
	text := rep.RenderText()
	for _, want := range []string{
		"3 scenarios", "Invariant robustness across routes",
		"=== scenario paper", "=== scenario dense-urban", "=== scenario commuter-loop",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("sweep report missing %q:\n%s", want, text)
		}
	}
	if rob := rep.Robustness(); len(rob) == 0 {
		t.Error("multi-scenario report produced no robustness verdicts")
	} else {
		for _, ir := range rob {
			switch ir.Verdict {
			case VerdictRobust, VerdictRouteSpecific, VerdictFragile:
			default:
				t.Errorf("invariant %s has verdict %q", ir.Name, ir.Verdict)
			}
			if len(ir.Rates) != 3 {
				t.Errorf("invariant %s has rates for %d scenarios, want 3", ir.Name, len(ir.Rates))
			}
		}
	}
	if _, err := rep.HTML(); err != nil {
		t.Errorf("sweep report HTML: %v", err)
	}

	// The sweep is a pure function of the config: worker count is invisible.
	cfg2 := sweepConfig(t, "")
	cfg2.Workers = 1
	rep2, err := Run(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.RenderText() != text {
		t.Error("worker count changed the rendered sweep report")
	}
}

// TestFleetScenarioSweepResume is the multi-scenario crash-resume contract:
// kill a sweep mid-flight (simulated by truncating the checkpoint to a
// prefix plus a torn line), re-run, and the report must be byte-identical
// while the surviving (scenario, seed) rows are skipped.
func TestFleetScenarioSweepResume(t *testing.T) {
	ck := filepath.Join(t.TempDir(), "sweep.jsonl")
	cfg := sweepConfig(t, ck)
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	full := rep.RenderText()

	b, err := os.ReadFile(ck)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(b), "\n")
	if len(lines) < 6 {
		t.Fatalf("sweep checkpoint has %d lines, want >= 6", len(lines))
	}
	truncated := lines[0] + lines[1] + lines[2] + `{"scenario":"dense-urban","seed":24,"shards":1,"ops":{"V":{"dri`
	if err := os.WriteFile(ck, []byte(truncated), 0o644); err != nil {
		t.Fatal(err)
	}

	var events []Event
	cfg.Progress = func(ev Event) { events = append(events, ev) }
	rep2, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.RenderText() != full {
		t.Error("resumed sweep report differs from the uninterrupted run")
	}
	resumed := 0
	for _, ev := range events {
		if ev.Resumed {
			resumed++
		}
		if ev.Total != 6 {
			t.Errorf("event Total = %d, want 6", ev.Total)
		}
	}
	if resumed != 3 {
		t.Errorf("resume reused %d rows, want the 3 intact checkpoint lines", resumed)
	}
}

// TestFleetScenarioMismatchNotReused: a checkpoint row from one scenario
// must never satisfy another scenario's seed — same seed, different route,
// different data.
func TestFleetScenarioMismatchNotReused(t *testing.T) {
	ck := filepath.Join(t.TempDir(), "fleet.jsonl")
	cfg := testConfig(ck)
	cfg.Seeds = 1
	if _, err := Run(cfg); err != nil { // writes the paper seed-23 row
		t.Fatal(err)
	}

	cfg.Scenarios = sweepScenarios(t, "dense-urban")
	var events []Event
	cfg.Progress = func(ev Event) { events = append(events, ev) }
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	for _, ev := range events {
		if ev.Resumed {
			t.Errorf("dense-urban seed %d resumed from a paper checkpoint row", ev.Seed)
		}
	}
}

// TestFleetDuplicateScenarioRejected: two scenarios with one name would
// write indistinguishable checkpoint rows, so Run refuses up front.
func TestFleetDuplicateScenarioRejected(t *testing.T) {
	cfg := testConfig("")
	cfg.Scenarios = []Scenario{{Name: "dense-urban"}, {Name: "dense-urban"}}
	if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "listed twice") {
		t.Fatalf("duplicate scenario names not rejected: %v", err)
	}
}

// TestReduceEmptyDataset guards the reducer against a seed whose campaign
// yields zero tests of some kind: medians must come back zero (never NaN,
// which would poison the JSON checkpoint) and nothing may panic.
func TestReduceEmptyDataset(t *testing.T) {
	for _, ds := range []*dataset.Dataset{
		{Seed: 99},
		{Seed: 99, Tests: []dataset.TestSummary{{ID: 1, Miles: 1}}},
	} {
		sum := Reduce(ds)
		if sum.Seed != 99 {
			t.Fatalf("Reduce keyed summary wrong: %+v", sum)
		}
		for op, o := range sum.Ops {
			for name, v := range map[string]float64{
				"drive DL": o.DriveDLMedMbps, "static DL": o.StaticDLMedMbps,
				"RTT": o.DriveRTTMedMs, "5G share": o.FiveGMileShare,
				"HOs/mile": o.HOsPerMileMed, "HO dur": o.HODurMedMs,
			} {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s %s is %v on an empty dataset", op, name, v)
				}
			}
		}
		if _, err := json.Marshal(sum); err != nil {
			t.Errorf("empty-dataset summary does not survive JSON: %v", err)
		}
		for _, pass := range sum.Shapes {
			if pass {
				t.Error("a shape invariant passed on an empty dataset")
			}
		}
	}
}

// TestFleetReportEmpty: a fleet whose seeds all failed to load still
// renders (and HTML-renders) without NaNs or panics.
func TestFleetReportEmpty(t *testing.T) {
	rep := &Report{StartSeed: 5, Seeds: 2}
	text := rep.RenderText()
	if !strings.Contains(text, "no completed seeds") {
		t.Errorf("empty report rendered:\n%s", text)
	}
	if _, err := rep.HTML(); err != nil {
		t.Errorf("empty report HTML: %v", err)
	}
}
