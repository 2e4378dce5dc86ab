package fleet

import (
	"fmt"
	"sort"
)

// MergeShards folds worker shard checkpoints back into the main checkpoint
// after a multi-process sweep (internal/coord): every row a shard carries
// that the main file does not is appended to the main file in canonical
// sweep order — scenario position first, then seed ascending.
//
// That order is the point. A single-process `-workers 1` fleet appends
// fresh rows exactly in sweep order (the job queue is built in that order
// and drained serially), so appending the union of the shards' fresh rows
// in the same order makes the merged checkpoint byte-identical to the file
// the single-process run would have written over the same starting
// content: same prefix (the pre-existing bytes are never rewritten), same
// appended rows (EncodeSummary is deterministic and each summary is a pure
// function of (scenario, policy, seed)), same sequence.
//
// Rows outside this sweep (other scenarios, other seed ranges) are ignored
// wherever they appear: shard files start as copies of the main
// checkpoint, so such rows are either already in the main file or belong
// to a different sweep entirely.
//
// The merge is idempotent and kill-tolerant: first-wins dedup skips rows
// already present, so re-running a merge that was interrupted mid-append
// writes only the missing suffix, in the same order. The caller must hold
// the main checkpoint's lock (the coordinator merges inside its critical
// section); MergeShards does not take it.
func (cfg Config) MergeShards(shardPaths []string) error {
	if cfg.Checkpoint == "" {
		return fmt.Errorf("fleet: MergeShards needs Config.Checkpoint")
	}
	scenarios, err := cfg.scenarios()
	if err != nil {
		return fmt.Errorf("fleet: %w", err)
	}
	cellIdx := map[SeedKey]int{}
	for i, sn := range scenarios {
		cellIdx[SeedKey{Scenario: sn.Name, Policy: sn.Policy}] = i
	}

	have, err := LoadCheckpoint(cfg.Checkpoint)
	if err != nil {
		return fmt.Errorf("fleet: reading checkpoint: %w", err)
	}
	type fresh struct {
		idx int // scenario position in the sweep
		sum SeedSummary
	}
	var rows []fresh
	for _, path := range shardPaths {
		part, err := LoadCheckpoint(path)
		if err != nil {
			return fmt.Errorf("fleet: reading shard %s: %w", path, err)
		}
		for key, sum := range part {
			if _, dup := have[key]; dup {
				continue
			}
			ci, swept := cellIdx[SeedKey{Scenario: key.Scenario, Policy: key.Policy}]
			if !swept || key.Seed < cfg.StartSeed || key.Seed >= cfg.StartSeed+int64(cfg.Seeds) {
				continue
			}
			have[key] = sum // dedup across shards, first shard wins
			rows = append(rows, fresh{idx: ci, sum: sum})
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].idx != rows[j].idx {
			return rows[i].idx < rows[j].idx
		}
		return rows[i].sum.Seed < rows[j].sum.Seed
	})

	f, err := openCheckpointAppend(cfg.Checkpoint)
	if err != nil {
		return fmt.Errorf("fleet: opening checkpoint: %w", err)
	}
	defer f.Close()
	for _, r := range rows {
		if err := appendSummary(f, r.sum); err != nil {
			return fmt.Errorf("fleet: merging checkpoint: %w", err)
		}
	}
	return nil
}
