package main

import (
	_ "embed"
	"encoding/json"
	"fmt"

	"wheels/internal/analysis"
)

// Reference outputs pinned for the default seed (23) and the held-out seed
// (41), so a later claim can be re-checked on a seed its author never tuned
// against. Seeds without a pin are still checked for internal consistency
// (repetitions agree, files re-hash to the streamed digest) but not against
// a fixed answer. Pins are written once from a run's -observed file and
// never regenerated to make a change pass.
//
//go:embed pins.json
var pinsJSON []byte

type paperPin struct {
	Digest string          `json:"digest"`
	Rows   analysis.Counts `json:"rows"`
	Shapes map[string]bool `json:"shapes"`
}

type fleetPin struct {
	SeedSHA256 []string `json:"seed_sha256"`
	ReportText string   `json:"report_txt_sha256"`
	ReportHTML string   `json:"report_html_sha256"`
}

type figuresPin struct {
	Digest  string `json:"digest"`
	Figures string `json:"figures_sha256"`
}

type pinFile struct {
	Paper   map[string]paperPin   `json:"paper-campaign"`
	Fleet   map[string]fleetPin   `json:"quick-fleet"`
	Figures map[string]figuresPin `json:"figures-reload"`
}

func loadPins() (pinFile, error) {
	var p pinFile
	if err := json.Unmarshal(pinsJSON, &p); err != nil {
		return p, fmt.Errorf("pins.json: %w", err)
	}
	return p, nil
}

func seedKey(seed int64) string { return fmt.Sprint(seed) }
