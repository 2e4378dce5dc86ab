// Command benchgate compares metrics between two benchjson reports and
// fails when a current value regresses past its budget. CI runs it against
// the committed baseline (e.g. BENCH_fleet.json) so a perf regression fails
// the build instead of silently landing.
//
// Usage:
//
//	benchgate -gate NAME:METRIC:BUDGET[:higher] [-gate ...] baseline.json current.json
//	benchgate -name B [-metric U] [-max-regress PCT] [-higher-is-better] baseline.json current.json
//
// Each -gate spec names a benchmark, a metric — a custom `go test -bench`
// unit published via b.ReportMetric ("seeds/hour", "live-MB/seed", ...) or
// the built-in "ns/op" — and a maximum regression percentage. Lower is
// better by default; a trailing ":higher" marks throughput-style metrics.
// The single-gate -name/-metric flags remain as shorthand for one spec.
//
// Every gate prints an old/new/delta line. A benchmark or metric missing
// from either report, or an absent/unreadable baseline file, is a warning,
// not a failure: a gate with nothing to compare must not block the build
// (first run on a new baseline, a bench renamed in the same PR). Only a
// measured regression past budget exits nonzero.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strconv"
	"strings"
)

// result mirrors the benchjson Result fields the gate reads.
type result struct {
	Name    string             `json:"name"`
	NsPerOp float64            `json:"ns_per_op"`
	Metrics map[string]float64 `json:"metrics"`
}

// gate is one NAME:METRIC:BUDGET[:higher] spec.
type gate struct {
	name   string
	metric string
	budget float64
	higher bool
}

func parseGate(spec string) (gate, error) {
	parts := strings.Split(spec, ":")
	if len(parts) < 3 || len(parts) > 4 {
		return gate{}, fmt.Errorf("gate %q: want NAME:METRIC:BUDGET[:higher]", spec)
	}
	budget, err := strconv.ParseFloat(parts[2], 64)
	if err != nil {
		return gate{}, fmt.Errorf("gate %q: bad budget: %v", spec, err)
	}
	g := gate{name: parts[0], metric: parts[1], budget: budget}
	if len(parts) == 4 {
		if parts[3] != "higher" {
			return gate{}, fmt.Errorf("gate %q: trailing field must be \"higher\"", spec)
		}
		g.higher = true
	}
	return g, nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchgate: ")
	var gates []gate
	flag.Func("gate", "repeatable NAME:METRIC:BUDGET[:higher] gate spec", func(spec string) error {
		g, err := parseGate(spec)
		if err != nil {
			return err
		}
		gates = append(gates, g)
		return nil
	})
	var (
		name   = flag.String("name", "", "benchmark name for a single gate (shorthand for -gate)")
		metric = flag.String("metric", "ns/op", "metric unit for -name (custom ReportMetric unit or ns/op)")
		budget = flag.Float64("max-regress", 20, "maximum allowed regression in percent for -name")
		higher = flag.Bool("higher-is-better", false, "treat larger values as better for -name (throughput metrics)")
	)
	flag.Parse()
	if *name != "" {
		gates = append(gates, gate{name: *name, metric: *metric, budget: *budget, higher: *higher})
	}
	if len(gates) == 0 || flag.NArg() != 2 {
		log.Fatal("usage: benchgate -gate NAME:METRIC:BUDGET[:higher] [-gate ...] baseline.json current.json")
	}

	base, baseOK := load(flag.Arg(0))
	cur, curOK := load(flag.Arg(1))
	if !curOK {
		// No current numbers at all means the bench step upstream broke;
		// that is a real failure, unlike a missing baseline.
		os.Exit(1)
	}

	if evalGates(os.Stdout, base, baseOK, cur, gates) {
		os.Exit(1)
	}
}

// evalGates prints one verdict line per spec and reports whether any gate
// failed. It is the whole comparison engine, split from main so the gate
// semantics (missing data warns, only measured regressions fail) are
// testable without exec'ing the binary.
func evalGates(w io.Writer, base []result, baseOK bool, cur []result, gates []gate) bool {
	fail := false
	for _, g := range gates {
		label := g.name + " " + g.metric
		baseV, haveBase := lookup(base, g.name, g.metric)
		curV, haveCur := lookup(cur, g.name, g.metric)
		switch {
		case !baseOK || !haveBase:
			fmt.Fprintf(w, "%-50s baseline missing, current %.3f — not gated (warning)\n", label, curV)
			continue
		case !haveCur:
			fmt.Fprintf(w, "%-50s current missing, baseline %.3f — not gated (warning)\n", label, baseV)
			continue
		case baseV == 0:
			fmt.Fprintf(w, "%-50s baseline is zero — not gated (warning)\n", label)
			continue
		}
		// Regression percentage, positive when current is worse.
		regress := (curV - baseV) / baseV * 100
		if g.higher {
			regress = (baseV - curV) / baseV * 100
		}
		verdict := "ok"
		if regress > g.budget {
			verdict = "FAIL"
			fail = true
		}
		fmt.Fprintf(w, "%-50s old %.3f  new %.3f  delta %+.1f%%  (budget %.0f%%) %s\n",
			label, baseV, curV, regress, g.budget, verdict)
	}
	return fail
}

// load reads one benchjson report, warning instead of exiting on problems.
func load(path string) ([]result, bool) {
	data, err := os.ReadFile(path)
	if err != nil {
		log.Printf("warning: %v", err)
		return nil, false
	}
	var results []result
	if err := json.Unmarshal(data, &results); err != nil {
		log.Printf("warning: %s: %v", path, err)
		return nil, false
	}
	return results, true
}

// lookup returns the named benchmark's metric value.
func lookup(results []result, name, metric string) (float64, bool) {
	for _, r := range results {
		if r.Name != name {
			continue
		}
		if metric == "ns/op" {
			return r.NsPerOp, true
		}
		v, ok := r.Metrics[metric]
		return v, ok
	}
	return 0, false
}
