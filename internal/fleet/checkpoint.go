package fleet

// Checkpoint codec: one SeedSummary as a single JSON object per line,
// appended (and fsynced) as each seed completes. The decoder is written
// for the file a killed fleet leaves behind:
//
//   - a truncated final line (the write the kill interrupted) is dropped;
//   - duplicate (scenario, seed) entries collapse to the first occurrence,
//     so a seed can never be counted twice;
//   - unknown fields are ignored, so older binaries read newer files;
//   - an absent scenario field means "paper" — the only scenario builds
//     that predate scenarios could run — so their files keep resuming;
//   - a line with "shards" above 1 is skipped before dedup: it came from
//     the route-sharded engine older builds offered and describes a
//     different dataset, so a later serial row for the same seed wins;
//   - any undecodable line is skipped rather than failing the resume.
//
// Every surviving entry is a pure function of (scenario, policy, seed), so
// "skip the seeds already on disk" is equivalent to re-running them.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"os"
)

// maxCheckpointLine bounds one JSONL record (a summary is well under 4 KiB).
const maxCheckpointLine = 1 << 20

// SeedKey identifies one checkpoint row: a seed is only "already done" for
// the scenario AND handover-policy digest it ran under, so a multi-scenario
// or policy-grid sweep never mistakes one cell's summary for another's. The
// empty policy is the default policy, which is what every row written
// before policies existed ran.
type SeedKey struct {
	Scenario string
	Policy   string
	Seed     int64
}

// ParseCheckpoint reads checkpoint JSONL from r and returns the surviving
// summaries keyed by (scenario, seed), with absent scenario fields
// defaulted to "paper". It never fails on malformed content — torn lines,
// garbage, and duplicates are skipped per the rules above — and only
// returns r's read error, if any.
func ParseCheckpoint(r io.Reader) (map[SeedKey]SeedSummary, error) {
	out := map[SeedKey]SeedSummary{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), maxCheckpointLine)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		// A record must at least carry an explicit seed: this rejects torn
		// lines and stray JSON (which would otherwise register seed 0).
		var probe struct {
			Seed   *int64 `json:"seed"`
			Shards int    `json:"shards"`
		}
		if err := json.Unmarshal(line, &probe); err != nil || probe.Seed == nil || probe.Shards > 1 {
			continue
		}
		var sum SeedSummary
		if err := json.Unmarshal(line, &sum); err != nil {
			continue
		}
		if sum.Scenario == "" {
			sum.Scenario = "paper" // pre-scenario checkpoint line
		}
		key := SeedKey{Scenario: sum.Scenario, Policy: sum.Policy, Seed: sum.Seed}
		if _, dup := out[key]; dup {
			continue // first occurrence wins; never double-count a seed
		}
		out[key] = sum
	}
	return out, sc.Err()
}

// LoadCheckpoint reads the checkpoint file at path. A missing file is an
// empty checkpoint, not an error.
func LoadCheckpoint(path string) (map[SeedKey]SeedSummary, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return map[SeedKey]SeedSummary{}, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ParseCheckpoint(f)
}

// EncodeSummary renders one checkpoint line (including the newline).
// encoding/json sorts map keys, so the line is deterministic.
func EncodeSummary(sum SeedSummary) ([]byte, error) {
	b, err := json.Marshal(sum)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// openCheckpointAppend opens (creating if needed) the checkpoint for
// appending. If a previous run was killed mid-write the file ends in a
// torn, newline-less fragment; a newline is appended first so the next
// record starts on a fresh line instead of concatenating into the torn one
// (which would corrupt both records for later resumes).
func openCheckpointAppend(path string) (*os.File, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	if n := st.Size(); n > 0 {
		last := make([]byte, 1)
		if _, err := f.ReadAt(last, n-1); err != nil {
			f.Close()
			return nil, err
		}
		if last[0] != '\n' {
			if _, err := f.WriteAt([]byte{'\n'}, n); err != nil {
				f.Close()
				return nil, err
			}
		}
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// AppendSummaries appends the given summaries to the checkpoint at path in
// order, creating the file if needed and healing a torn final line first
// (see openCheckpointAppend). The coordinator uses it to seed worker
// shards from the main checkpoint.
func AppendSummaries(path string, sums []SeedSummary) error {
	f, err := openCheckpointAppend(path)
	if err != nil {
		return err
	}
	defer f.Close()
	for _, sum := range sums {
		if err := appendSummary(f, sum); err != nil {
			return err
		}
	}
	return nil
}

// appendSummary writes one summary line to the open checkpoint file and
// syncs it, so a completed seed survives any later kill.
func appendSummary(f *os.File, sum SeedSummary) error {
	b, err := EncodeSummary(sum)
	if err != nil {
		return err
	}
	if _, err := f.Write(b); err != nil {
		return err
	}
	return f.Sync()
}
