package main

import (
	"fmt"
	"os"
	"time"

	"wheels/internal/analysis"
	"wheels/internal/campaign"
	"wheels/internal/dataset"
	"wheels/internal/scenario"
)

// setupReps is how many times a paper-campaign run builds its set-up;
// setup_s is the median.
const setupReps = 5

// compilePaper builds the paper scenario's testbed, as drivesim does.
func compilePaper() (*scenario.Scenario, *campaign.Testbed, error) {
	sc, err := scenario.Resolve("paper")
	if err != nil {
		return nil, nil, err
	}
	tb, err := sc.Compile()
	return sc, tb, err
}

// newCampaign is campaign.NewWithTestbed under a campaign.new span.
func newCampaign(cfg campaign.Config, tb *campaign.Testbed, tr *Tracer, parent int) *campaign.Campaign {
	id := tr.Begin("campaign.new", parent)
	defer tr.End(id)
	return campaign.NewWithTestbed(cfg, tb)
}

// streamResult is what one streamed campaign produced.
type streamResult struct {
	digest string
	rows   analysis.Counts
	shapes map[string]bool
	counts analysis.Counts // rows seen by the traced count sink; zero untraced

	raw, gz int64 // decompressed and on-disk bytes of the files, once checked
}

// streamCampaign runs a built campaign exactly as drivesim -stream-out
// does, into Tee(Accumulator, HashSink, ParallelCSVWriter) with two gzip
// workers writing to out. With a tracer, RunTo+Flush get a campaign.run
// span under parent and every Tee member is timed at its boundary.
func streamCampaign(c *campaign.Campaign, shapes analysis.ShapeParams, out string, tr *Tracer, parent int) (streamResult, error) {
	w, err := dataset.NewParallelCSVWriter(out, 2, 0)
	if err != nil {
		return streamResult{}, err
	}
	acc := analysis.NewAccumulator(c.Cfg.Seed)
	acc.SetShapeParams(shapes)
	h := dataset.NewHashSink()

	run := tr.Begin("campaign.run", parent)
	sinks := []dataset.Sink{
		timed(acc, tr.NewAgg("analysis.accumulate", run)),
		timed(h, tr.NewAgg("dataset.hash", run)),
		timed(w, tr.NewAgg("dataset.csvgz", run)),
	}
	cnt := &countSink{}
	if tr != nil {
		sinks = append(sinks, timed(cnt, tr.NewAgg("bench.count", run)))
	}
	sink := dataset.Tee(sinks...)
	c.RunTo(sink)
	err = sink.Flush()
	tr.End(run)
	if err != nil {
		return streamResult{}, err
	}
	res := streamResult{digest: h.Sum(), rows: acc.Counts(), shapes: map[string]bool{}, counts: cnt.n}
	for _, r := range acc.ShapeResults() {
		res.shapes[r.Name] = r.Pass
	}
	return res, nil
}

// checkStream checks a streamed campaign's outputs: the files on disk
// re-hash to the streamed digest and hold the accumulated row counts, and
// a pinned seed reproduces its pinned digest, rows and shape verdicts.
// It records the files' decompressed and compressed sizes in res.
func checkStream(e *env, what string, res *streamResult, out string, pin *paperPin) error {
	digest, raw, gz, err := gzDigest(out)
	if err != nil {
		return err
	}
	res.raw, res.gz = raw, gz
	e.chk.check(digest == res.digest, "%s seed %d: files re-hash to %s, stream hashed %s", what, e.seed, digest, res.digest)
	if pin != nil {
		e.chk.check(res.digest == pin.Digest, "%s seed %d: digest %s, pinned %s", what, e.seed, res.digest, pin.Digest)
		e.chk.check(res.rows == pin.Rows, "%s seed %d: rows %+v, pinned %+v", what, e.seed, res.rows, pin.Rows)
		same := len(res.shapes) == len(pin.Shapes)
		for k, v := range pin.Shapes {
			same = same && res.shapes[k] == v
		}
		e.chk.check(same, "%s seed %d: shape verdicts %v, pinned %v", what, e.seed, res.shapes, pin.Shapes)
	}
	return nil
}

// paperRun is one paper-campaign run's shared state. Its set-up is what
// the timed section needs before the campaign can start: the compiled
// testbed and the seed's campaign (drive trace, deployments, UEs).
type paperRun struct {
	sc     *scenario.Scenario
	tb     *campaign.Testbed
	cfg    campaign.Config
	pin    *paperPin
	first  string // first repetition's digest
	setups []float64
}

func newPaperRun(e *env) (*paperRun, error) {
	pins, err := loadPins()
	if err != nil {
		return nil, err
	}
	p := &paperRun{cfg: campaign.DefaultConfig(e.seed)}
	if pin, ok := pins.Paper[seedKey(e.seed)]; ok {
		p.pin = &pin
	}
	// Every repetition builds its own campaign; build (and drop) extra
	// ones first so setup_s is a median of at least setupReps builds.
	for i := 0; i < setupReps-1; i++ {
		if _, err := p.setup(nil, 0); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// setup compiles the testbed and builds the seed's campaign, timed.
func (p *paperRun) setup(tr *Tracer, parent int) (*campaign.Campaign, error) {
	t0 := time.Now()
	id := tr.Begin("campaign.testbed", parent)
	sc, tb, err := compilePaper()
	tr.End(id)
	if err != nil {
		return nil, err
	}
	p.sc, p.tb, p.cfg = sc, tb, sc.ApplySchedule(p.cfg)
	c := newCampaign(p.cfg, tb, tr, parent)
	p.setups = append(p.setups, time.Since(t0).Seconds())
	return c, nil
}

// rep sets up, runs and checks one timed repetition, leaving its files in
// out.
func (p *paperRun) rep(e *env, out string, tr *Tracer, parent int) (sectionResult, streamResult, error) {
	c, err := p.setup(tr, parent)
	if err != nil {
		return sectionResult{}, streamResult{}, err
	}
	sec := startSection()
	res, err := streamCampaign(c, p.sc.ShapeParams(), out, tr, parent)
	r := sec.stop()
	if err == nil {
		err = checkStream(e, "paper-campaign", &res, out, p.pin)
	}
	if err != nil {
		return r, res, err
	}
	if p.first == "" {
		p.first = res.digest
		e.observed["digest"] = res.digest
		e.observed["rows"] = res.rows
		e.observed["shapes"] = res.shapes
	} else {
		e.chk.check(res.digest == p.first, "paper-campaign seed %d: repetition digest %s differs from the first, %s", e.seed, res.digest, p.first)
	}
	return r, res, nil
}

func runPaper(e *env) (map[string]float64, error) {
	p, err := newPaperRun(e)
	if err != nil {
		return nil, err
	}
	var outBytes []float64
	reps, err := repeat(e.seconds, 2, func() (sectionResult, error) {
		out, err := os.MkdirTemp(e.tmp, "paper-")
		if err != nil {
			return sectionResult{}, err
		}
		defer os.RemoveAll(out)
		r, res, err := p.rep(e, out, nil, 0)
		outBytes = append(outBytes, float64(res.gz))
		return r, err
	})
	if err != nil {
		return nil, err
	}
	return summarize(p.setups, reps, outBytes), nil
}

// tracePaper measures one untraced repetition, then a traced one, then
// reloads the traced repetition's files and runs the layer probes on them.
func tracePaper(e *env, tr *Tracer) (map[string]float64, error) {
	vals := layerBase()
	p, err := newPaperRun(e)
	if err != nil {
		return nil, err
	}
	out, err := os.MkdirTemp(e.tmp, "paper-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(out)
	plain, _, err := p.rep(e, out, nil, 0)
	if err != nil {
		return nil, err
	}
	root := tr.Begin("workload.paper-campaign", 0)
	traced, res, err := p.rep(e, out, tr, root)
	tr.End(root)
	if err != nil {
		return nil, err
	}
	e.chk.check(res.counts == res.rows, "paper-campaign seed %d: sink boundary saw %+v rows, accumulator %+v", e.seed, res.counts, res.rows)

	var ds *dataset.Dataset
	tr.Do("dataset.load", 0, func(int) { ds, err = dataset.LoadCompressed(out) })
	if err != nil {
		return nil, fmt.Errorf("reloading the campaign's files: %w", err)
	}
	setLayerSpans(vals, tr.Spans())
	setStream(vals, res, plain, traced)
	runProbes(e, tr, vals, p.tb, p.cfg.KmLimit, ds)
	return vals, nil
}

// layerBase is a per-layer result with every metric at 0, the value for a
// layer the workload never calls.
func layerBase() map[string]float64 {
	vals := map[string]float64{}
	for _, m := range perLayer {
		vals[m.name] = 0
	}
	return vals
}

// setLayerSpans fills the metrics read straight off the span tree.
func setLayerSpans(vals map[string]float64, spans []Span) {
	self := SelfTimes(spans)
	dur := func(s Span) float64 { return s.Dur() }
	vals["campaign.testbed_s"] = byName(spans, "campaign.testbed", dur)
	vals["campaign.new_s"] = byName(spans, "campaign.new", dur)
	vals["campaign.sim_self_s"] = byName(spans, "campaign.run", func(s Span) float64 { return self[s.ID] })
	vals["dataset.hash_s"] = byName(spans, "dataset.hash", dur)
	vals["dataset.csvgz_s"] = byName(spans, "dataset.csvgz", dur)
	vals["analysis.accumulate_s"] = byName(spans, "analysis.accumulate", dur)
	vals["dataset.load_s"] = byName(spans, "dataset.load", dur)
	vals["analysis.figures_s"] = byName(spans, "analysis.figures", dur)
}

// setStream fills the metrics of a traced streamed campaign and of the
// untraced/traced repetition pair.
func setStream(vals map[string]float64, res streamResult, plain, traced sectionResult) {
	setRows(vals, res.counts)
	vals["dataset.hash_mb"] = float64(res.raw) / 1e6
	vals["dataset.gz_ratio"] = float64(res.raw) / float64(res.gz)
	setRuntime(vals, plain, traced)
}

// setRuntime fills the runtime counters from the untraced repetition and
// the tracing overhead from the pair.
func setRuntime(vals map[string]float64, plain, traced sectionResult) {
	vals["runtime.alloc_mb"] = plain.AllocMB
	vals["runtime.gc_cpu_s"] = plain.GCCPUS
	vals["trace.overhead_s"] = traced.WallS - plain.WallS
}

func setRows(vals map[string]float64, n analysis.Counts) {
	vals["dataset.rows_thr"] = float64(n.Thr)
	vals["dataset.rows_rtt"] = float64(n.RTT)
	vals["dataset.rows_handover"] = float64(n.Handovers)
	vals["dataset.rows_test"] = float64(n.Tests)
	vals["dataset.rows_app"] = float64(n.Apps)
	vals["dataset.rows_passive"] = float64(n.Passive)
}
