package main

import (
	"errors"
	"os"
	"path/filepath"
	"sync"
	"time"

	"wheels/internal/analysis"
	"wheels/internal/campaign"
	"wheels/internal/dataset"
	"wheels/internal/fleet"
	"wheels/internal/scenario"
)

const (
	fleetSeeds   = 120 // consecutive seeds from the workload seed
	fleetKm      = 40  // campaign.QuickConfig's route limit
	fleetWorkers = 2
	replaySeeds  = 8 // seeds the traced run replays through a bare pipeline

	fleetSetupReps = 101
)

// fleetRun is one quick-fleet run's shared state.
type fleetRun struct {
	sc     *scenario.Scenario
	tb     *campaign.Testbed
	pin    *fleetPin
	setups []float64
	first  *fleetOut
}

// fleetOut is what one fleet repetition produced.
type fleetOut struct {
	seedSHA   []string // DatasetSHA256 per seed, in seed order
	txt, html string   // report digests
	ckptBytes int64
	outBytes  int64
}

func newFleetRun(e *env) (*fleetRun, error) {
	pins, err := loadPins()
	if err != nil {
		return nil, err
	}
	// The fleet's set-up is the shared testbed; it compiles in tens of
	// microseconds, so take the median of many builds.
	f := &fleetRun{}
	for i := 0; i < fleetSetupReps; i++ {
		t0 := time.Now()
		if f.sc, f.tb, err = compilePaper(); err != nil {
			return nil, err
		}
		f.setups = append(f.setups, time.Since(t0).Seconds())
	}
	if pin, ok := pins.Fleet[seedKey(e.seed)]; ok {
		f.pin = &pin
	}
	return f, nil
}

// rep runs one fleet repetition into a fresh checkpoint and renders its
// report, as the fleet CLI does with -checkpoint, -out and -html.
// seedSink, when set, builds fleet.Config.SeedSink for the fleet.run span.
func (f *fleetRun) rep(e *env, tr *Tracer, parent int, seedSink func(run int) func(string, int64) (dataset.Sink, error)) (sectionResult, *fleetOut, error) {
	dir, err := os.MkdirTemp(e.tmp, "fleet-")
	if err != nil {
		return sectionResult{}, nil, err
	}
	defer os.RemoveAll(dir)
	ckpt := filepath.Join(dir, "checkpoint.jsonl")
	txtPath, htmlPath := filepath.Join(dir, "report.txt"), filepath.Join(dir, "report.html")

	sec := startSection()
	run := tr.Begin("fleet.run", parent)
	cfg := fleet.Config{
		Base: campaign.QuickConfig(e.seed, fleetKm),
		Scenarios: []fleet.Scenario{{
			Name: f.sc.Name(), Testbed: f.tb, Shapes: f.sc.ShapeParams(), Configure: f.sc.ApplySchedule,
		}},
		StartSeed:  e.seed,
		Seeds:      fleetSeeds,
		Workers:    fleetWorkers,
		Checkpoint: ckpt,
	}
	if seedSink != nil {
		cfg.SeedSink = seedSink(run)
	}
	rep, err := fleet.Run(cfg)
	tr.End(run)
	if err != nil {
		return sectionResult{}, nil, err
	}
	var txt, html []byte
	reportID := tr.Begin("fleet.report", parent)
	txt = []byte(rep.RenderText())
	err = os.WriteFile(txtPath, txt, 0o644)
	if err == nil {
		if html, err = rep.HTML(); err == nil {
			err = os.WriteFile(htmlPath, html, 0o644)
		}
	}
	tr.End(reportID)
	r := sec.stop()
	if err != nil {
		return r, nil, err
	}

	out := &fleetOut{txt: sha256Hex(txt), html: sha256Hex(html)}
	sums, err := fleet.LoadCheckpoint(ckpt)
	if err != nil {
		return r, nil, err
	}
	for seed := e.seed; seed < e.seed+fleetSeeds; seed++ {
		sum := sums[fleet.SeedKey{Scenario: f.sc.Name(), Seed: seed}]
		out.seedSHA = append(out.seedSHA, sum.DatasetSHA256)
	}
	if info, err := os.Stat(ckpt); err == nil {
		out.ckptBytes = info.Size()
	}
	if out.outBytes, err = dirBytes(dir); err != nil {
		return r, nil, err
	}
	f.check(e, out)
	return r, out, nil
}

// check compares a repetition's per-seed hashes and report bytes with the
// pin (pinned seeds) and with the first repetition.
func (f *fleetRun) check(e *env, out *fleetOut) {
	for i, sha := range out.seedSHA {
		seed := e.seed + int64(i)
		ok := sha != ""
		if f.pin != nil {
			ok = ok && i < len(f.pin.SeedSHA256) && sha == f.pin.SeedSHA256[i]
		}
		if f.first != nil {
			ok = ok && sha == f.first.seedSHA[i]
		}
		e.chk.check(ok, "quick-fleet seed %d: dataset hash %q disagrees with the pin or the first repetition", seed, sha)
	}
	if f.pin != nil {
		e.chk.check(out.txt == f.pin.ReportText, "quick-fleet seed %d: text report %s, pinned %s", e.seed, out.txt, f.pin.ReportText)
		e.chk.check(out.html == f.pin.ReportHTML, "quick-fleet seed %d: HTML report %s, pinned %s", e.seed, out.html, f.pin.ReportHTML)
	}
	if f.first == nil {
		f.first = out
		e.observed["seed_sha256"] = out.seedSHA
		e.observed["report_txt_sha256"] = out.txt
		e.observed["report_html_sha256"] = out.html
		return
	}
	e.chk.check(out.txt == f.first.txt && out.html == f.first.html, "quick-fleet seed %d: report bytes differ between repetitions", e.seed)
}

func runFleet(e *env) (map[string]float64, error) {
	f, err := newFleetRun(e)
	if err != nil {
		return nil, err
	}
	var outBytes []float64
	reps, err := repeat(e.seconds, 2, func() (sectionResult, error) {
		r, out, err := f.rep(e, nil, 0, nil)
		if err == nil {
			outBytes = append(outBytes, float64(out.outBytes))
		}
		return r, err
	})
	if err != nil {
		return nil, err
	}
	return summarize(f.setups, reps, outBytes), nil
}

// traceFleet measures one untraced repetition, then a traced one whose
// per-seed spans open when the fleet asks for the seed's extra sink and
// close at that sink's Flush. It then replays the first seeds through the
// fleet's per-seed pipeline with every member timed, which splits a seed's
// time into campaign, accumulator and hash, and runs the layer probes on
// the first seed's dataset.
func traceFleet(e *env, tr *Tracer) (map[string]float64, error) {
	vals := layerBase()
	f, err := newFleetRun(e)
	if err != nil {
		return nil, err
	}
	tr.Do("campaign.testbed", 0, func(int) { _, _, err = compilePaper() })
	if err != nil {
		return nil, err
	}
	plain, _, err := f.rep(e, nil, 0, nil)
	if err != nil {
		return nil, err
	}

	root := tr.Begin("workload.quick-fleet", 0)
	var (
		mu   sync.Mutex
		rows analysis.Counts
	)
	seedSink := func(run int) func(string, int64) (dataset.Sink, error) {
		return func(string, int64) (dataset.Sink, error) {
			id := tr.Begin("fleet.seed", run)
			cnt := &countSink{}
			cnt.flush = func() {
				tr.End(id)
				mu.Lock()
				rows = addCounts(rows, cnt.n)
				mu.Unlock()
			}
			return cnt, nil
		}
	}
	traced, out, err := f.rep(e, tr, root, seedSink)
	tr.End(root)
	if err != nil {
		return nil, err
	}

	spans := tr.Spans()
	var seedSecs []float64
	var fleetWall float64
	for _, s := range spans {
		switch s.Name {
		case "fleet.seed":
			seedSecs = append(seedSecs, s.Dur())
		case "fleet.run":
			fleetWall = s.Dur()
		}
	}
	e.chk.check(len(seedSecs) == fleetSeeds, "quick-fleet seed %d: traced %d seed spans, want %d", e.seed, len(seedSecs), fleetSeeds)
	var busy float64
	for _, s := range seedSecs {
		busy += s
	}
	vals["campaign.testbed_s"] = byName(spans, "campaign.testbed", func(s Span) float64 { return s.Dur() })
	vals["fleet.seed_p50_s"] = quantile(seedSecs, 0.5)
	vals["fleet.seed_p90_s"] = quantile(seedSecs, 0.9)
	vals["fleet.worker_idle_frac"] = (fleetWorkers*fleetWall - busy) / (fleetWorkers * fleetWall)
	vals["fleet.report_s"] = byName(spans, "fleet.report", func(s Span) float64 { return s.Dur() })
	vals["fleet.checkpoint_kb"] = float64(out.ckptBytes) / 1e3
	setRuntime(vals, plain, traced)
	setRows(vals, rows)

	ds, err := f.replay(e, tr, vals, out)
	if err != nil {
		return nil, err
	}
	runProbes(e, tr, vals, f.tb, fleetKm, ds)
	return vals, nil
}

// replay runs the first replaySeeds seeds serially through the pipeline
// fleet.Run gives every seed — NewWithTestbed, then RunTo into
// Tee(Accumulator, HashSink) — with each member timed, and reports the
// per-seed means. Each replayed digest must match the fleet's checkpoint.
// A Collector rides along (timed separately, so it stays out of the
// campaign's self time) to measure the CSV bytes the hash consumed and to
// hand the first seed's dataset to the probes.
func (f *fleetRun) replay(e *env, tr *Tracer, vals map[string]float64, out *fleetOut) (*dataset.Dataset, error) {
	root := tr.Begin("replay.quick-fleet", 0)
	var first *dataset.Dataset
	var csvBytes int64
	for i := 0; i < replaySeeds; i++ {
		cfg := f.sc.ApplySchedule(campaign.QuickConfig(e.seed+int64(i), fleetKm))
		seedID := tr.Begin("replay.seed", root)
		c := newCampaign(cfg, f.tb, tr, seedID)
		acc := analysis.NewAccumulator(cfg.Seed)
		acc.SetShapeParams(f.sc.ShapeParams())
		h := dataset.NewHashSink()
		col := dataset.NewCollector(cfg.Seed)
		run := tr.Begin("campaign.run", seedID)
		sink := dataset.Tee(
			timed(acc, tr.NewAgg("analysis.accumulate", run)),
			timed(h, tr.NewAgg("dataset.hash", run)),
			timed(col, tr.NewAgg("bench.collect", run)),
		)
		c.RunTo(sink)
		err := sink.Flush()
		tr.End(run)
		tr.End(seedID)
		if err != nil {
			return nil, err
		}
		e.chk.check(h.Sum() == out.seedSHA[i], "quick-fleet seed %d: replayed digest %s, fleet checkpoint %s", cfg.Seed, h.Sum(), out.seedSHA[i])
		dir, err := os.MkdirTemp(e.tmp, "csv-")
		if err != nil {
			return nil, err
		}
		err = col.Dataset().Save(dir)
		n, derr := dirBytes(dir)
		os.RemoveAll(dir)
		if err != nil || derr != nil {
			return nil, errors.Join(err, derr)
		}
		csvBytes += n
		if first == nil {
			first = col.Dataset()
		}
	}
	tr.End(root)
	spans := tr.Spans()
	perSeed := func(name string, f func(Span) float64) float64 { return byName(spans, name, f) / replaySeeds }
	self := SelfTimes(spans)
	dur := func(s Span) float64 { return s.Dur() }
	vals["campaign.new_s"] = perSeed("campaign.new", dur)
	vals["campaign.sim_self_s"] = perSeed("campaign.run", func(s Span) float64 { return self[s.ID] })
	vals["dataset.hash_s"] = perSeed("dataset.hash", dur)
	vals["analysis.accumulate_s"] = perSeed("analysis.accumulate", dur)
	vals["dataset.hash_mb"] = float64(csvBytes) / replaySeeds / 1e6
	return first, nil
}
