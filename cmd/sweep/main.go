// Command sweep fans a declarative grid of handover policies across the
// fleet: every (scenario × policy × seed) cell runs one full campaign, and
// the report adds a per-road-class Pareto verdict — which handover config
// dominates on city, suburban, and highway driving, over handover rate,
// interruption, 5G dwell, and throughput. It is the policy-space companion
// to cmd/whatif: whatif replays recorded traces under transformed radio
// conditions, sweep re-simulates from scratch under transformed control-
// plane policy, with the drive trace held fixed per seed (the trace is a
// pure function of seed and route, so same-seed cells differ only in
// policy).
//
// Usage:
//
//	sweep [-scenario LIST] [-grid FILE] [-seeds N] [-start-seed S]
//	      [-workers W] [-checkpoint FILE] [-verify-resume]
//	      [-out FILE] [-html FILE] [-quick] [-km N] [-apps=false]
//	      [-print-grid]
//
// -grid names a JSON file shaped like:
//
//	{"policies": [
//	  {"name": "baseline"},
//	  {"name": "sticky", "all": {"hysteresis_frac": 0.20}},
//	  {"name": "tuned", "operators": {"verizon": {"eval_min_sec": 5}}}
//	]}
//
// Each policy entry overlays partial overrides — the same schema scenario
// files use in their "handover" section — onto every operator's default
// policy ("all"), then onto single operators ("operators"). An entry with
// no overrides is the scenario's own policy: its handover section if it
// has one, otherwise the paper-measured defaults. Without -grid a built-in
// four-policy grid (baseline / sticky / nervous / eager-5g) runs.
//
// Checkpoint rows are keyed by (scenario, policy digest, seed), so one
// checkpoint file carries the whole grid and a killed sweep resumes
// byte-identically — the same contract cmd/fleet has, extended with the
// policy axis.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"wheels/internal/campaign"
	"wheels/internal/fleet"
	"wheels/internal/radio"
	"wheels/internal/ran"
	"wheels/internal/scenario"
)

// GridPolicy is one named point in the policy grid. All applies to every
// operator; Operators refines single operators on top of that. Both use
// the scenario handover-section schema (partial overlays onto the
// operator's default policy).
type GridPolicy struct {
	Name      string                           `json:"name"`
	All       *scenario.PolicyConfig           `json:"all,omitempty"`
	Operators map[string]scenario.PolicyConfig `json:"operators,omitempty"`
}

// Grid is the declarative policy axis of the sweep.
type Grid struct {
	Policies []GridPolicy `json:"policies"`
}

// defaultGrid is the built-in policy axis: the measured baseline plus the
// three directions the paper's findings make interesting — a sticky policy
// (wider A3 margin, slower evaluation: fewer handovers at the cost of
// staleness), a nervous one (the opposite corner), and an eager-5g one
// (elevation probabilities pushed up across all traffic classes, probing
// whether more 5G dwell survives the extra vertical handovers it costs).
const defaultGrid = `{
  "policies": [
    {"name": "baseline"},
    {"name": "sticky",
     "all": {"hysteresis_frac": 0.20, "eval_min_sec": 14, "eval_max_sec": 24}},
    {"name": "nervous",
     "all": {"hysteresis_frac": 0.02, "eval_min_sec": 5, "eval_max_sec": 9}},
    {"name": "eager-5g",
     "all": {"elevation": {
       "idle":    {"mmwave": 0.20, "mid": 0.60, "low": 0.75},
       "probe":   {"mmwave": 0.25, "mid": 0.65, "low": 0.80},
       "bulk-dl": {"mmwave": 0.95, "mid": 0.95, "low": 0.90},
       "bulk-ul": {"mmwave": 0.60, "mid": 0.70, "low": 0.85}}}}
  ]
}`

// parseGrid decodes and validates a grid: unique non-empty names, known
// operator keys, and per-operator configs the ran layer accepts.
func parseGrid(raw []byte) (*Grid, error) {
	var g Grid
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&g); err != nil {
		return nil, err
	}
	if len(g.Policies) == 0 {
		return nil, fmt.Errorf("grid lists no policies")
	}
	seen := map[string]bool{}
	for _, p := range g.Policies {
		if p.Name == "" {
			return nil, fmt.Errorf("grid policy with empty name")
		}
		if seen[p.Name] {
			return nil, fmt.Errorf("grid policy %q listed twice", p.Name)
		}
		seen[p.Name] = true
		if _, err := p.resolve(); err != nil {
			return nil, fmt.Errorf("policy %q: %w", p.Name, err)
		}
	}
	return &g, nil
}

// parseOperator resolves an operator by canonical or short name.
func parseOperator(s string) (radio.Operator, bool) {
	for _, op := range radio.Operators() {
		if s == op.String() || s == op.Short() {
			return op, true
		}
	}
	return 0, false
}

// resolve materializes the policy's per-operator handover configs.
// Operators no overlay touches keep the zero value, which the campaign
// testbed maps to the operator's default — so an all-empty policy yields
// an empty digest, i.e. exactly the pre-sweep fleet cell.
func (p GridPolicy) resolve() ([radio.NumOperators]ran.HandoverConfig, error) {
	var out [radio.NumOperators]ran.HandoverConfig
	var touched [radio.NumOperators]bool
	materialize := func(op radio.Operator) *ran.HandoverConfig {
		if !touched[op] {
			out[op] = ran.DefaultHandoverConfig(op)
			touched[op] = true
		}
		return &out[op]
	}
	if p.All != nil {
		for _, op := range radio.Operators() {
			if err := p.All.Apply(materialize(op)); err != nil {
				return out, err
			}
		}
	}
	for name, pc := range p.Operators {
		op, ok := parseOperator(name)
		if !ok {
			return out, fmt.Errorf("unknown operator %q", name)
		}
		if err := pc.Apply(materialize(op)); err != nil {
			return out, fmt.Errorf("operator %s: %w", name, err)
		}
	}
	for _, op := range radio.Operators() {
		if !touched[op] {
			continue
		}
		if err := out[op].Validate(); err != nil {
			return out, fmt.Errorf("operator %s: %w", op, err)
		}
	}
	return out, nil
}

// isBaseline reports whether the policy carries no overrides at all, in
// which case the scenario's own testbed (and its own handover section, if
// any) is used unchanged.
func (p GridPolicy) isBaseline() bool {
	return p.All == nil && len(p.Operators) == 0
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("sweep: ")
	var (
		scenarios  = flag.String("scenario", "paper", "comma-separated scenario list (library names or random:<seed>) to cross with the policy grid")
		gridFile   = flag.String("grid", "", "JSON policy-grid file (default: built-in baseline/sticky/nervous/eager-5g grid)")
		seeds      = flag.Int("seeds", 3, "number of campaigns per (scenario, policy) cell")
		startSeed  = flag.Int64("start-seed", 23, "first campaign seed")
		workers    = flag.Int("workers", 0, "max campaigns in flight at once (0 = GOMAXPROCS)")
		checkpoint = flag.String("checkpoint", "", "JSONL file to append per-seed summaries to and resume from")
		verify     = flag.Bool("verify-resume", false, "re-run resumed seeds and warn when the recomputed dataset hash disagrees with the checkpoint")
		out        = flag.String("out", "", "write the sweep text report to this file (default stdout)")
		htmlOut    = flag.String("html", "", "also write the report as a self-contained HTML page")
		quick      = flag.Bool("quick", false, "network tests only, first 200 km per seed")
		km         = flag.Float64("km", 0, "truncate each campaign to the first N km (0 = full trip)")
		apps       = flag.Bool("apps", true, "run the four killer apps in each campaign")
		printGrid  = flag.Bool("print-grid", false, "print the effective policy grid as JSON and exit")
	)
	flag.Parse()

	raw := []byte(defaultGrid)
	if *gridFile != "" {
		b, err := os.ReadFile(*gridFile)
		if err != nil {
			log.Fatalf("-grid: %v", err)
		}
		raw = b
	}
	grid, err := parseGrid(raw)
	if err != nil {
		log.Fatalf("-grid: %v", err)
	}
	if *printGrid {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(grid); err != nil {
			log.Fatal(err)
		}
		return
	}

	base := campaign.DefaultConfig(0) // Seed is set per fleet job
	base.EnableApps = *apps
	base.KmLimit = *km
	if *quick {
		base = campaign.QuickConfig(0, 200)
		if *km > 0 {
			base.KmLimit = *km
		}
	}

	// Compile each scenario once, then stamp one testbed per grid policy: a
	// shallow copy shares the immutable route and server registry, so the
	// whole grid row costs one extra Handover array per policy, and per-seed
	// drive traces are identical across the row (the trace draws only on the
	// testbed's route, never on policy).
	var sweep []fleet.Scenario
	for _, spec := range strings.Split(*scenarios, ",") {
		spec = strings.TrimSpace(spec)
		if spec == "" {
			continue
		}
		sc, err := scenario.Resolve(spec)
		if err != nil {
			log.Fatalf("-scenario %s: %v", spec, err)
		}
		tb, err := sc.Compile()
		if err != nil {
			log.Fatalf("-scenario %s: %v", spec, err)
		}
		for _, p := range grid.Policies {
			cell := tb
			if !p.isBaseline() {
				ho, err := p.resolve()
				if err != nil {
					log.Fatalf("policy %s: %v", p.Name, err) // parseGrid validated; defensive
				}
				clone := *tb
				clone.Handover = ho
				cell = &clone
			}
			sweep = append(sweep, fleet.Scenario{
				Name:       sc.Name(),
				PolicyName: p.Name,
				Testbed:    cell,
				Shapes:     sc.ShapeParams(),
				Configure:  sc.ApplySchedule,
			})
		}
	}
	if len(sweep) == 0 {
		log.Fatal("-scenario lists no scenarios")
	}

	start := time.Now()
	cfg := fleet.Config{
		Base:         base,
		Scenarios:    sweep,
		StartSeed:    *startSeed,
		Seeds:        *seeds,
		Workers:      *workers,
		Checkpoint:   *checkpoint,
		VerifyResume: *verify,
		Progress: func(ev fleet.Event) {
			state := "done"
			if ev.Resumed {
				state = "resumed from checkpoint"
				if *verify && !ev.HashMismatch {
					state = "resumed, hash verified"
				}
			}
			policy := ev.PolicyName
			if policy == "" {
				policy = "default"
			}
			fmt.Fprintf(os.Stderr, "  %s/%s seed %d %s (%d/%d, shapes %d/%d, %s)\n",
				ev.Scenario, policy, ev.Seed, state, ev.Done, ev.Total,
				ev.ShapesPass, ev.ShapesTotal, time.Since(start).Round(time.Second))
			if ev.HashMismatch {
				fmt.Fprintf(os.Stderr, "  WARNING: %s/%s seed %d checkpoint hash disagrees with this build — written by different code\n",
					ev.Scenario, policy, ev.Seed)
			}
		},
	}

	cells := len(sweep)
	fmt.Fprintf(os.Stderr, "sweep: %d policies × %d scenario(s) × %d seeds = %d campaigns from seed %d...\n",
		len(grid.Policies), cells/len(grid.Policies), *seeds, cells**seeds, *startSeed)

	rep, err := fleet.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}

	text := rep.RenderText()
	if *out != "" {
		if err := os.WriteFile(*out, []byte(text), 0o644); err != nil {
			log.Fatalf("writing report: %v", err)
		}
		fmt.Fprintf(os.Stderr, "report written to %s\n", *out)
	} else {
		fmt.Print(text)
	}
	if *htmlOut != "" {
		html, err := rep.HTML()
		if err != nil {
			log.Fatalf("rendering HTML: %v", err)
		}
		if err := os.WriteFile(*htmlOut, html, 0o644); err != nil {
			log.Fatalf("writing HTML: %v", err)
		}
		fmt.Fprintf(os.Stderr, "HTML report written to %s\n", *htmlOut)
	}
}
