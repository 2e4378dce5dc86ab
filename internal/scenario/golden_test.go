package scenario

import (
	"crypto/sha256"
	"fmt"
	"os"
	"strings"
	"testing"

	"wheels/internal/campaign"
	"wheels/internal/dataset"
	"wheels/internal/pathtest"
)

// campaignGoldenHash is the campaign package's committed seed-23 golden.
// The scenario guard reads the same file rather than keeping a copy: there
// is exactly one definition of "the paper's output bytes" in the repo.
const campaignGoldenHash = "../campaign/testdata/golden_seed23.sha256"

// TestPaperScenarioGoldenSeed23 is the byte-identity guard for the whole
// scenario layer: compiling the `paper` scenario and running the campaign
// golden config over the resulting testbed must reproduce the exact
// committed seed-23 dataset hash. If this fails while the campaign
// package's own golden test passes, the scenario compile pipeline changed
// the route, deployments, or draw order — never "fix" it by regenerating
// the golden.
func TestPaperScenarioGoldenSeed23(t *testing.T) {
	if testing.Short() {
		t.Skip("golden campaign run is slow")
	}
	tb, err := MustLoad("paper").Compile()
	if err != nil {
		t.Fatal(err)
	}
	// Mirror the campaign package's goldenConfig: serial seed-23, first
	// 120 km, passive loggers and static batteries on.
	cfg := campaign.QuickConfig(23, 120)
	cfg.EnablePassive = true
	cfg.EnableStatic = true
	cfg = MustLoad("paper").ApplySchedule(cfg) // must be a no-op

	ds := campaign.NewWithTestbed(cfg, tb).Run()
	got := fmt.Sprintf("%x", sha256.Sum256(pathtest.ExportBytes(t, ds)))

	want, err := os.ReadFile(campaignGoldenHash)
	if err != nil {
		t.Fatalf("reading campaign golden hash: %v", err)
	}
	if got != strings.TrimSpace(string(want)) {
		t.Errorf("paper-scenario seed-23 hash = %s, want %s\n"+
			"the scenario compile pipeline no longer reproduces the paper route byte-for-byte",
			got, strings.TrimSpace(string(want)))
	}
}

// paperCampaignDigest is HashSink.Sum of the seed-23 DefaultConfig
// campaign on the compiled paper scenario — the digest drivesim
// -stream-out prints for that run. It is committed, never regenerated:
// unlike the 120-km golden above it covers every battery (speed tests, the
// §7 app runs, static cities, passive loggers) over the whole multi-day
// trace, so a change that reorders or alters any app or speed-test row
// fails here.
const paperCampaignDigest = "7adcf825aa30310c59fe6e83406498a3a1aa8fc0e6b63c010f528f37d1ab46f2"

// TestGoldenPaperCampaignSeed23 pins the full paper campaign's streamed
// bytes. It has no -update path: a mismatch means the simulator's output
// changed.
func TestGoldenPaperCampaignSeed23(t *testing.T) {
	if testing.Short() {
		t.Skip("full paper campaign is slow")
	}
	sc := MustLoad("paper")
	tb, err := sc.Compile()
	if err != nil {
		t.Fatal(err)
	}
	h := dataset.NewHashSink()
	campaign.NewWithTestbed(sc.ApplySchedule(campaign.DefaultConfig(23)), tb).RunTo(h)
	if err := h.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := h.Sum(); got != paperCampaignDigest {
		t.Errorf("seed-23 paper campaign digest = %s, want %s", got, paperCampaignDigest)
	}
}
