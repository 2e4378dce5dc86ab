package coord

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"wheels/internal/fleet"
)

// row is a minimal checkpoint summary under the given key.
func row(scenario, policy string, seed int64) fleet.SeedSummary {
	return fleet.SeedSummary{Scenario: scenario, Policy: policy, Seed: seed, Tests: int(seed)}
}

// keysInFileOrder decodes a checkpoint file line by line and returns its
// keys in the order they were written.
func keysInFileOrder(t *testing.T, path string) []fleet.SeedKey {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var keys []fleet.SeedKey
	for _, line := range bytes.Split(bytes.TrimSpace(raw), []byte("\n")) {
		var s fleet.SeedSummary
		if err := json.Unmarshal(line, &s); err != nil {
			t.Fatalf("%s: bad line %q: %v", path, line, err)
		}
		keys = append(keys, fleet.SeedKey{Scenario: s.Scenario, Policy: s.Policy, Seed: s.Seed})
	}
	return keys
}

// okWorker is a Spawn that builds a worker exiting 0.
func okWorker(int, int) (*exec.Cmd, error) { return exec.Command("sh", "-c", "exit 0"), nil }

func TestRunRejectsBadConfig(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "ck.jsonl")
	for _, cfg := range []Config{
		{Procs: 2, Spawn: okWorker},
		{Checkpoint: ckpt, Procs: 0, Spawn: okWorker},
		{Checkpoint: ckpt, Procs: -1, Spawn: okWorker},
	} {
		if err := Run(cfg); err == nil {
			t.Errorf("Run(%+v) = nil, want an error", cfg)
		}
	}
}

func TestRunFailsWhileMainLockHeld(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "ck.jsonl")
	lock, err := fleet.AcquireCheckpointLock(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	spawned := false
	err = Run(Config{Checkpoint: ckpt, Procs: 2, Spawn: func(int, int) (*exec.Cmd, error) {
		spawned = true
		return okWorker(0, 0)
	}})
	if err == nil {
		t.Fatal("Run succeeded while another holder had the main lock")
	}
	if spawned {
		t.Error("Run spawned workers without the main lock")
	}
	lock.Release()
	if err := Run(Config{Checkpoint: ckpt, Procs: 1, Spawn: okWorker}); err != nil {
		t.Fatalf("Run after the holder released the lock: %v", err)
	}
}

func TestSeedShardsAppendsMissingRowsInKeyOrder(t *testing.T) {
	dir := t.TempDir()
	main := filepath.Join(dir, "ck.jsonl")
	shards := []string{ShardPath(main, 0), ShardPath(main, 1)}
	// Main rows deliberately out of key order.
	if err := fleet.AppendSummaries(main, []fleet.SeedSummary{
		row("paper", "", 25), row("paper", "pol", 23), row("dense-urban", "", 24), row("paper", "", 23),
	}); err != nil {
		t.Fatal(err)
	}
	// Shard 0 already has one main row and one row that exists only in the
	// shard (finished, not yet merged); shard 1 does not exist yet.
	if err := fleet.AppendSummaries(shards[0], []fleet.SeedSummary{row("paper", "", 23), row("paper", "", 99)}); err != nil {
		t.Fatal(err)
	}

	if err := seedShards(main, shards); err != nil {
		t.Fatal(err)
	}
	sorted := []fleet.SeedKey{
		{Scenario: "dense-urban", Seed: 24},
		{Scenario: "paper", Seed: 23},
		{Scenario: "paper", Seed: 25},
		{Scenario: "paper", Policy: "pol", Seed: 23},
	}
	want0 := []fleet.SeedKey{
		{Scenario: "paper", Seed: 23},
		{Scenario: "paper", Seed: 99},
		sorted[0], sorted[2], sorted[3],
	}
	if got := keysInFileOrder(t, shards[0]); !reflect.DeepEqual(got, want0) {
		t.Errorf("shard 0 rows = %v, want %v", got, want0)
	}
	if got := keysInFileOrder(t, shards[1]); !reflect.DeepEqual(got, sorted) {
		t.Errorf("shard 1 rows = %v, want %v", got, sorted)
	}

	before := make([][]byte, len(shards))
	for i, p := range shards {
		before[i], _ = os.ReadFile(p)
	}
	if err := seedShards(main, shards); err != nil {
		t.Fatal(err)
	}
	for i, p := range shards {
		if after, _ := os.ReadFile(p); !bytes.Equal(after, before[i]) {
			t.Errorf("second seedShards changed %s:\nbefore %s\nafter  %s", p, before[i], after)
		}
	}
}

func TestRunWorkerFailureSkipsMerge(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "no-such-worker")
	cases := []struct {
		name  string
		spawn func(shard, procs int) (*exec.Cmd, error)
		want  string
	}{
		{"spawn error", func(shard, _ int) (*exec.Cmd, error) {
			if shard == 1 {
				return nil, errors.New("no worker for you")
			}
			return okWorker(shard, 0)
		}, "building worker 1"},
		{"missing binary", func(shard, _ int) (*exec.Cmd, error) {
			if shard == 1 {
				return exec.Command(missing), nil
			}
			return okWorker(shard, 0)
		}, "starting worker 1"},
		{"worker exits non-zero", func(shard, _ int) (*exec.Cmd, error) {
			if shard == 1 {
				return exec.Command("sh", "-c", "exit 3"), nil
			}
			return okWorker(shard, 0)
		}, "exit status 3"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			merged := false
			err := Run(Config{
				Checkpoint: filepath.Join(t.TempDir(), "ck.jsonl"),
				Procs:      2,
				Spawn:      tc.spawn,
				Merge:      func([]string) error { merged = true; return nil },
			})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Run error = %v, want one mentioning %q", err, tc.want)
			}
			if merged {
				t.Error("Merge called after a worker failure")
			}
		})
	}
}

func TestRunMergesShardsInOrder(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "ck.jsonl")
	var calls [][]string
	err := Run(Config{
		Checkpoint: ckpt,
		Procs:      3,
		Spawn:      okWorker,
		Merge:      func(paths []string) error { calls = append(calls, paths); return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	want := [][]string{{ShardPath(ckpt, 0), ShardPath(ckpt, 1), ShardPath(ckpt, 2)}}
	if !reflect.DeepEqual(calls, want) {
		t.Errorf("Merge calls = %v, want %v", calls, want)
	}
}
