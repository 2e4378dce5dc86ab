// Command perfbench is the wheels benchmark: it drives the simulator's
// public entry points on three workloads and prints one JSON result line.
//
// Usage:
//
//	perfbench -workload NAME -seed N -seconds S -trace 0|1 [-spans FILE] [-observed FILE]
//
// Untraced runs (-trace 0) report the end-to-end metrics: set-up time, wall
// and CPU seconds of the timed section, peak RSS, and bytes written. Traced
// runs (-trace 1) time every layer at its public boundary from this
// package's own code, write the span tree to -spans, and report the
// per-layer metrics. Every run checks the program's outputs; a mismatch
// counts as a failed operation. See README.md for the workloads, the
// metrics, and what each layer metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// metricSpec names one reported metric.
type metricSpec struct{ name, unit string }

// endToEnd are the metrics untraced runs report, in BENCHMARK.json order.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"peak_rss_mb", "MB"},
	{"output_mb", "MB"},
}

// perLayer are the metrics traced runs report, in BENCHMARK.json order. A
// layer a workload never calls reads 0 there (see README.md).
var perLayer = []metricSpec{
	{"campaign.testbed_s", "s"},
	{"campaign.new_s", "s"},
	{"campaign.sim_self_s", "s"},
	{"dataset.hash_s", "s"},
	{"dataset.hash_mb", "MB"},
	{"dataset.csvgz_s", "s"},
	{"dataset.gz_ratio", "ratio"},
	{"analysis.accumulate_s", "s"},
	{"dataset.rows_thr", "count"},
	{"dataset.rows_rtt", "count"},
	{"dataset.rows_handover", "count"},
	{"dataset.rows_test", "count"},
	{"dataset.rows_app", "count"},
	{"dataset.rows_passive", "count"},
	{"dataset.load_s", "s"},
	{"analysis.figures_s", "s"},
	{"geo.drive_s", "s"},
	{"deploy.build_s", "s"},
	{"geo.cursor_restart_s", "s"},
	{"deploy.cellat_ns", "ns"},
	{"radio.link_step_ns", "ns"},
	{"ran.passive_walk_s", "s"},
	{"ran.handovers", "count"},
	{"transport.bulk_test_ms", "ms"},
	{"apps.offload_s", "s"},
	{"apps.video_s", "s"},
	{"apps.gaming_s", "s"},
	{"fleet.seed_p50_s", "s"},
	{"fleet.seed_p90_s", "s"},
	{"fleet.worker_idle_frac", "fraction"},
	{"fleet.report_s", "s"},
	{"fleet.checkpoint_kb", "KB"},
	{"runtime.alloc_mb", "MB"},
	{"runtime.gc_cpu_s", "s"},
	{"trace.overhead_s", "s"},
}

// workload is one benchmark input family. run measures the end-to-end
// metrics; trace measures the per-layer ones.
type workload struct {
	name  string
	why   string
	run   func(e *env) (map[string]float64, error)
	trace func(e *env, tr *Tracer) (map[string]float64, error)
}

var workloads = []workload{
	{"paper-campaign", "the paper's own full LA-Boston campaign with every battery on, streamed to gzip CSVs", runPaper, tracePaper},
	{"quick-fleet", "120 short network-only seeds through fleet.Run: per-seed build, link/transport ticks, encode+hash, checkpoints", runFleet, traceFleet},
	{"figures-reload", "reloads a 1500-km gzip dataset and renders every figure: the dataset read side and analysis reductions", runFigures, traceFigures},
}

// env is what a workload run needs from the command line.
type env struct {
	seed     int64
	seconds  float64
	tmp      string // scratch directory, removed at exit
	chk      *checker
	observed map[string]any // reference values seen, for -observed
}

// checker counts output checks; every mismatch is a failed operation.
type checker struct{ attempted, failed int }

func (c *checker) check(ok bool, format string, args ...any) {
	c.attempted++
	if !ok {
		c.failed++
		fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var (
		name     = flag.String("workload", "", "workload name: paper-campaign, quick-fleet or figures-reload")
		seed     = flag.Int64("seed", 23, "workload seed")
		seconds  = flag.Float64("seconds", 20, "measure for at least this many seconds (at least one repetition)")
		traceOn  = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		spansOut = flag.String("spans", "", "traced runs: write the span tree to this JSON file")
		observed = flag.String("observed", "", "write the reference outputs this run observed to this JSON file")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *traceOn == 1, *spansOut, *observed); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, traced bool, spansOut, observedOut string) error {
	var wl *workload
	for i := range workloads {
		if workloads[i].name == name {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	tmp, err := os.MkdirTemp("", "perfbench-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	e := &env{seed: seed, seconds: seconds, tmp: tmp, chk: &checker{}, observed: map[string]any{}}

	var values map[string]float64
	specs := endToEnd
	if traced {
		specs = perLayer
		tr := NewTracer()
		values, err = wl.trace(e, tr)
		if err == nil && spansOut != "" {
			if err := os.MkdirAll(filepath.Dir(spansOut), 0o755); err != nil {
				return err
			}
			err = tr.WriteJSON(spansOut)
		}
	} else {
		values, err = wl.run(e)
	}
	if err != nil {
		return err
	}
	if observedOut != "" {
		b, err := json.MarshalIndent(map[string]any{name: map[string]any{fmt.Sprint(seed): e.observed}}, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(observedOut, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	res := result{
		Correct:   e.chk.failed == 0,
		Attempted: e.chk.attempted,
		Failed:    e.chk.failed,
		Metrics:   map[string]metricValue{},
	}
	if res.Attempted == 0 {
		return fmt.Errorf("workload %s made no output checks", name)
	}
	var missing []string
	for _, m := range specs {
		v, ok := values[m.name]
		if !ok {
			missing = append(missing, m.name)
		}
		res.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return fmt.Errorf("workload %s did not measure %v", name, missing)
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// repeat runs rep until the repetitions' measured time reaches seconds,
// and at least minReps times: one repetition varies by several percent on
// a shared host, so a workload whose repetition fills the run still takes
// a median over two.
func repeat(seconds float64, minReps int, rep func() (sectionResult, error)) ([]sectionResult, error) {
	var out []sectionResult
	var total float64
	for len(out) < max(minReps, 1) || total < seconds {
		r, err := rep()
		if err != nil {
			return nil, err
		}
		out = append(out, r)
		total += r.WallS
		fmt.Fprintf(os.Stderr, "perfbench: repetition %d: wall %.3f s, cpu %.3f s, peak RSS %.1f MB\n", len(out), r.WallS, r.CPUS, r.PeakMB)
	}
	return out, nil
}

// summarize turns set-up times, timed repetitions and per-repetition
// output bytes into the end-to-end metrics, each the median over the run.
func summarize(setups []float64, reps []sectionResult, outBytes []float64) map[string]float64 {
	var wall, cpu, peak []float64
	for _, r := range reps {
		wall = append(wall, r.WallS)
		cpu = append(cpu, r.CPUS)
		peak = append(peak, r.PeakMB)
	}
	return map[string]float64{
		"setup_s":     median(setups),
		"wall_s":      median(wall),
		"cpu_s":       median(cpu),
		"peak_rss_mb": median(peak),
		"output_mb":   median(outBytes) / 1e6,
	}
}
