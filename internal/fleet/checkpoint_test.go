package fleet

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

func sampleSummary(seed int64) SeedSummary {
	return SeedSummary{
		Scenario: "paper",
		Seed:     seed,
		Ops: map[string]OpSummary{
			"V": {DriveDLMedMbps: 15.7, StaticDLMedMbps: 1290, HOsPerMileMed: 1.9},
			"T": {DriveDLMedMbps: 20.6, FiveGMileShare: 0.64},
		},
		Shapes:     map[string]bool{"tmobile-5g-leads": true, "verizon-att-5g-band": false},
		ThrSamples: 1234,
		Tests:      56,
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	want := map[SeedKey]SeedSummary{}
	for _, seed := range []int64{23, 24, 25} {
		sum := sampleSummary(seed)
		want[SeedKey{Scenario: "paper", Seed: seed}] = sum
		line, err := EncodeSummary(sum)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(line)
	}
	got, err := ParseCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("round trip returned %d summaries, want %d", len(got), len(want))
	}
	for key, sum := range want {
		g, ok := got[key]
		if !ok {
			t.Fatalf("%v lost in round trip", key)
		}
		if g.ThrSamples != sum.ThrSamples || g.Ops["V"] != sum.Ops["V"] ||
			g.Shapes["tmobile-5g-leads"] != sum.Shapes["tmobile-5g-leads"] {
			t.Errorf("%v round-tripped to %+v", key, g)
		}
	}
}

// TestCheckpointLegacyFixture is the forward-compat regression test for the
// scenario field: the committed fixture is a checkpoint written by a
// pre-scenario build (no "scenario" key anywhere, and the seed-24 line also
// predates dataset hashing). It must keep parsing, keyed under "paper".
func TestCheckpointLegacyFixture(t *testing.T) {
	b, err := os.ReadFile("testdata/legacy_checkpoint.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(b, []byte("scenario")) {
		t.Fatal("legacy fixture mentions scenarios — it must stay a genuine pre-scenario file")
	}
	got, err := ParseCheckpoint(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("fixture decoded to %d summaries, want 2: %v", len(got), got)
	}
	for _, seed := range []int64{23, 24} {
		sum, ok := got[SeedKey{Scenario: "paper", Seed: seed}]
		if !ok {
			t.Fatalf("legacy seed %d not keyed under the paper scenario: %v", seed, got)
		}
		if sum.Scenario != "paper" {
			t.Errorf("legacy seed %d decoded with scenario %q, want paper", seed, sum.Scenario)
		}
	}
	if got[SeedKey{Scenario: "paper", Seed: 23}].ThrSamples != 1234 {
		t.Error("legacy seed 23 lost its sample counts")
	}
	if sha := got[SeedKey{Scenario: "paper", Seed: 24}].DatasetSHA256; sha != "" {
		t.Errorf("pre-hash legacy line decoded with hash %q, want empty", sha)
	}
}

func TestCheckpointDecoderTolerance(t *testing.T) {
	line23, _ := EncodeSummary(sampleSummary(23))
	dup23, _ := EncodeSummary(SeedSummary{Scenario: "paper", Seed: 23, ThrSamples: 9999})
	urban23, _ := EncodeSummary(SeedSummary{Scenario: "dense-urban", Seed: 23, ThrSamples: 777})

	paper := func(seed int64) SeedKey { return SeedKey{Scenario: "paper", Seed: seed} }
	cases := []struct {
		name  string
		input string
		keys  []SeedKey
	}{
		{"truncated last line", string(line23) + `{"seed":24,"shards":1,"ops":{"V":{"dri`, []SeedKey{paper(23)}},
		{"duplicate seed keeps first", string(line23) + string(dup23), []SeedKey{paper(23)}},
		{"unknown fields ignored", `{"seed":31,"shards":1,"future_field":{"x":1},"thr_samples":7}` + "\n", []SeedKey{paper(31)}},
		{"blank lines and garbage", "\n\nnot json at all\n" + string(line23) + "\n", []SeedKey{paper(23)}},
		{"json without a seed is not seed 0", `{"shards":1,"thr_samples":5}` + "\n", nil},
		{"absent scenario reads as paper", `{"seed":40,"shards":1,"thr_samples":3}` + "\n", []SeedKey{paper(40)}},
		{"same seed in two scenarios keeps both", string(line23) + string(urban23),
			[]SeedKey{paper(23), {Scenario: "dense-urban", Seed: 23}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := ParseCheckpoint(strings.NewReader(tc.input))
			if err != nil {
				t.Fatalf("ParseCheckpoint: %v", err)
			}
			if len(got) != len(tc.keys) {
				t.Fatalf("decoded %d summaries (%v), want keys %v", len(got), got, tc.keys)
			}
			for _, key := range tc.keys {
				if _, ok := got[key]; !ok {
					t.Errorf("%v missing", key)
				}
			}
			if sum, ok := got[paper(23)]; ok && sum.ThrSamples == 9999 {
				t.Error("duplicate entry overwrote the first occurrence (double-count risk)")
			}
			if sum, ok := got[SeedKey{Scenario: "dense-urban", Seed: 23}]; ok && sum.ThrSamples != 777 {
				t.Error("dense-urban row was conflated with the paper row for the same seed")
			}
		})
	}
}

// FuzzParseCheckpoint feeds arbitrary bytes — torn files, binary noise,
// pathological JSON — through the decoder: it must never panic, never
// error on content (only on reader failures), and never emit a record
// without an explicit seed. Seeding includes a valid line so mutations
// explore the interesting neighborhood.
func FuzzParseCheckpoint(f *testing.F) {
	line, _ := EncodeSummary(sampleSummary(23))
	f.Add(string(line))
	f.Add(string(line) + string(line[:len(line)/2]))
	f.Add(`{"seed":1}` + "\n" + `{"seed":1,"thr_samples":2}` + "\n")
	f.Add(`{"seed":1}` + "\n" + `{"seed":1,"scenario":"dense-urban"}` + "\n")
	f.Add("{\"seed\":null}\n[]\n{}\n")
	f.Fuzz(func(t *testing.T, input string) {
		got, err := ParseCheckpoint(strings.NewReader(input))
		if err != nil {
			t.Fatalf("ParseCheckpoint errored on in-memory input: %v", err)
		}
		for key, sum := range got {
			if key.Scenario == "" || sum.Scenario == "" {
				t.Fatalf("decoded record with an empty scenario: %v -> %+v", key, sum)
			}
		}
		// Resume must never double-count: re-parsing the same input plus a
		// duplicate of every decoded record yields the same summaries. The
		// separating newline mirrors openCheckpointAppend's torn-line repair.
		var again bytes.Buffer
		again.WriteString(input)
		if len(input) > 0 && !strings.HasSuffix(input, "\n") {
			again.WriteByte('\n')
		}
		for _, sum := range got {
			line, err := EncodeSummary(sum)
			if err != nil {
				t.Fatalf("decoded summary does not re-encode: %v", err)
			}
			again.Write(line)
		}
		got2, err := ParseCheckpoint(&again)
		if err != nil {
			t.Fatal(err)
		}
		if len(got2) != len(got) {
			t.Fatalf("appending duplicates changed the key set: %d vs %d", len(got2), len(got))
		}
	})
}
