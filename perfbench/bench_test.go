package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"sync"
	"testing"

	"wheels/internal/campaign"
	"wheels/internal/dataset"
)

// The timing wrappers must be byte-transparent: a HashSink behind a
// timedSink (next to the traced count sink, inside a Tee) sees exactly the
// record stream a bare HashSink sees. A short full-config campaign covers
// per-record emits, the batch emits of the fan-out replay and the passive
// loggers' bulk emit.
func TestTimedSinksAreByteTransparent(t *testing.T) {
	cfg := campaign.DefaultConfig(23)
	cfg.KmLimit = 30

	bare := dataset.NewHashSink()
	campaign.New(cfg).RunTo(bare)

	tr := NewTracer()
	run := tr.Begin("campaign.run", 0)
	wrapped := dataset.NewHashSink()
	cnt := &countSink{}
	sink := dataset.Tee(timed(wrapped, tr.NewAgg("dataset.hash", run)), timed(cnt, tr.NewAgg("bench.count", run)))
	campaign.New(cfg).RunTo(sink)
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	tr.End(run)

	if bare.Sum() != wrapped.Sum() {
		t.Fatalf("wrapped HashSink digest %s, bare %s", wrapped.Sum(), bare.Sum())
	}
	if cnt.n.Thr == 0 || cnt.n.Apps == 0 || cnt.n.Passive == 0 {
		t.Fatalf("count sink saw %+v; want throughput, app and passive rows", cnt.n)
	}
	var hashSpan *Span
	for _, s := range tr.Spans() {
		if s.Name == "dataset.hash" {
			s := s
			hashSpan = &s
		}
	}
	if hashSpan == nil || hashSpan.Calls == 0 || hashSpan.Busy <= 0 || hashSpan.Parent != run {
		t.Fatalf("dataset.hash aggregate span = %+v; want calls and busy time under the run span", hashSpan)
	}
	if timed(bare, nil) != dataset.Sink(bare) {
		t.Fatal("untraced timed() must return the sink itself")
	}
}

// Self time is a span's duration minus what its children cover: the union
// of ordinary children's intervals, clipped to the parent, plus the busy
// time of aggregate children.
func TestSelfTimesOnHandBuiltTree(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "root", Start: 0, End: 10},
		{ID: 2, Parent: 1, Name: "a", Start: 1, End: 4},
		{ID: 3, Parent: 1, Name: "b", Start: 3, End: 6}, // overlaps a: union 1..6
		{ID: 4, Parent: 1, Name: "agg", Start: 6, End: 9, Calls: 40, Busy: 1.5},
		{ID: 5, Parent: 2, Name: "a1", Start: 2, End: 3},
		{ID: 6, Parent: 3, Name: "late", Start: 5, End: 8}, // runs past b: clipped to 5..6
		{ID: 7, Name: "other-root", Start: 20, End: 21},
	}
	want := map[int]float64{
		1: 10 - 5 - 1.5,
		2: 3 - 1,
		3: 3 - 1,
		4: 1.5,
		5: 1,
		6: 3,
		7: 1,
	}
	got := SelfTimes(spans)
	for id, w := range want {
		if math.Abs(got[id]-w) > 1e-12 {
			t.Errorf("self time of span %d = %v, want %v", id, got[id], w)
		}
	}
	if n := len(got); n != len(spans) {
		t.Errorf("got %d self times, want %d", n, len(spans))
	}
}

// Fleet workers open and close per-seed spans from their own goroutines.
func TestTracerConcurrentSpans(t *testing.T) {
	tr := NewTracer()
	root := tr.Begin("fleet.run", 0)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				tr.End(tr.Begin("fleet.seed", root))
			}
		}()
	}
	wg.Wait()
	tr.End(root)
	spans := tr.Spans()
	if len(spans) != 201 {
		t.Fatalf("got %d spans, want 201", len(spans))
	}
	for i, s := range spans {
		if s.ID != i+1 || s.End < s.Start {
			t.Fatalf("span %d = %+v; want id %d closed after it opened", i, s, i+1)
		}
	}
}

// Every name the benchmark prints must be the one BENCHMARK.json declares,
// with the declared unit, and every name and unit must use only the
// allowed characters.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q has disallowed characters or length", name)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}

	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		checkName(w.Name)
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloads[i].name)
		}
		if w.Why != workloads[i].why || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why differs between BENCHMARK.json and the benchmark", w.Name)
		}
	}
	compare := func(kind string, declared []metric, printed []metricSpec, bounded bool) {
		if len(declared) != len(printed) {
			t.Fatalf("%s: BENCHMARK.json declares %d metrics, the benchmark prints %d", kind, len(declared), len(printed))
		}
		for i, m := range declared {
			checkName(m.Name)
			if !unitRE.MatchString(m.Unit) {
				t.Errorf("%s: unit %q of %s has disallowed characters", kind, m.Unit, m.Name)
			}
			if m.Name != printed[i].name || m.Unit != printed[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], benchmark %s [%s]", kind, i, m.Name, m.Unit, printed[i].name, printed[i].unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s: %s better = %q", kind, m.Name, m.Better)
			}
			if bounded != (m.Bound != nil) {
				t.Errorf("%s: %s bound presence wrong", kind, m.Name)
			}
			if m.Bound != nil && (*m.Bound <= 0 || *m.Bound > 0.25) {
				t.Errorf("%s: %s bound %v outside (0, 0.25]", kind, m.Name, *m.Bound)
			}
		}
	}
	compare("end_to_end", spec.EndToEnd, endToEnd, true)
	compare("per_layer", spec.PerLayer, perLayer, false)
}

// Fig. 12's kind rows are checked only through their per-direction total.
func TestFig12CheckedKeepsOrderIndependentPart(t *testing.T) {
	a := "Fig 12: throughput impact of handovers\n" +
		"  AT&T      DL dT1 n=10 med=  -1.00 fracNeg=0.60 | dT2 med=  -0.50 fracPos=0.40\n" +
		"    AT&T DL dT2[4G->4G] n=6 med=1.72\n" +
		"    AT&T DL dT2[4G->5G] n=3 med=4.55\n"
	b := strings.Replace(strings.Replace(a, "n=6 med=1.72", "n=5 med=1.39", 1), "n=3 med=4.55", "n=4 med=4.91", 1)
	c := strings.Replace(a, "dT1 n=10", "dT1 n=11", 1)
	if fig12Checked(a) != fig12Checked(b) {
		t.Errorf("re-attributing intervals between kinds changed the checked text:\n%s\n%s", fig12Checked(a), fig12Checked(b))
	}
	if fig12Checked(a) == fig12Checked(c) {
		t.Error("a change outside the kind rows was not seen")
	}
	if !strings.Contains(fig12Checked(a), "AT&T DL dT2[any kind] n=9") {
		t.Errorf("checked text lacks the kind total:\n%s", fig12Checked(a))
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := quantile(xs, 0.9); math.Abs(got-3.7) > 1e-12 {
		t.Errorf("p90 = %v, want 3.7", got)
	}
	if xs[0] != 4 {
		t.Error("quantile sorted its input in place")
	}
	if median(nil) != 0 {
		t.Error("median of nothing should be 0")
	}
}
