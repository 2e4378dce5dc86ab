package analysis

import (
	"fmt"
	"sort"
	"strings"

	"wheels/internal/dataset"
	"wheels/internal/radio"
)

// Fig11 holds the handover frequency and duration statistics — Fig. 11.
type Fig11 struct {
	// PerMile is the CDF of handovers per mile, one point per driving
	// throughput test, split by direction.
	PerMile map[radio.Operator]map[radio.Direction]CDF
	// DurationMs is the CDF of handover interruption times, split by the
	// traffic direction of the test during which they occurred.
	DurationMs map[radio.Operator]map[radio.Direction]CDF
}

// ComputeFig11 reduces the dataset to Fig. 11.
func ComputeFig11(ds *dataset.Dataset) Fig11 {
	perMile := map[radio.Operator]map[radio.Direction][]float64{}
	dur := map[radio.Operator]map[radio.Direction][]float64{}
	for _, t := range ds.Tests {
		if t.Static || (t.Kind != dataset.TestBulkDL && t.Kind != dataset.TestBulkUL) || t.Miles <= 0.01 {
			continue
		}
		if perMile[t.Op] == nil {
			perMile[t.Op] = map[radio.Direction][]float64{}
		}
		perMile[t.Op][t.Dir] = append(perMile[t.Op][t.Dir], float64(t.HOCount)/t.Miles)
	}
	for _, h := range ds.Handovers {
		if dur[h.Op] == nil {
			dur[h.Op] = map[radio.Direction][]float64{}
		}
		dur[h.Op][h.Dir] = append(dur[h.Op][h.Dir], h.DurSec*1000)
	}
	build := func(v map[radio.Operator]map[radio.Direction][]float64) map[radio.Operator]map[radio.Direction]CDF {
		out := map[radio.Operator]map[radio.Direction]CDF{}
		for op, byDir := range v {
			out[op] = map[radio.Direction]CDF{}
			for dir, vals := range byDir {
				out[op][dir] = NewCDF(vals)
			}
		}
		return out
	}
	return Fig11{PerMile: build(perMile), DurationMs: build(dur)}
}

// Render prints the figure.
func (f Fig11) Render() string {
	var b strings.Builder
	b.WriteString("Fig 11: handover statistics\n")
	for _, op := range radio.Operators() {
		for _, dir := range radio.Directions() {
			if c, ok := f.PerMile[op][dir]; ok {
				b.WriteString("  " + summarize(fmt.Sprintf("%s %s HOs/mile", op, dir), c, "/mi") + "\n")
			}
			if c, ok := f.DurationMs[op][dir]; ok {
				b.WriteString("  " + summarize(fmt.Sprintf("%s %s HO duration", op, dir), c, "ms") + "\n")
			}
		}
	}
	return b.String()
}

// Fig12 quantifies the throughput impact of handovers — Fig. 12:
// ΔT1 = T₃ − (T₂+T₄)/2 (drop during the HO interval) and
// ΔT2 = (T₄+T₅)/2 − (T₁+T₂)/2 (post- vs pre-HO change), per operator,
// direction, and HO kind.
type Fig12 struct {
	DeltaT1 map[radio.Operator]map[radio.Direction]CDF // Mbps
	DeltaT2 map[radio.Operator]map[radio.Direction]CDF
	// ByKind splits ΔT2 by the paper's four handover kinds.
	ByKind map[radio.Operator]map[radio.Direction]map[string]CDF
}

// ComputeFig12 reduces the dataset to Fig. 12. It walks each test's 500 ms
// sample series and evaluates the two deltas at every interval that
// recorded at least one handover, excluding intervals too close to the test
// boundary to have full context.
func ComputeFig12(ds *dataset.Dataset) Fig12 {
	// Group samples per test in time order.
	byTest := map[int][]dataset.ThroughputSample{}
	for _, s := range ds.Thr {
		if s.Static {
			continue
		}
		byTest[s.TestID] = append(byTest[s.TestID], s)
	}
	// HO kinds per test interval: each test's handovers in time order, so
	// the sample whose interval contains them can find the first one.
	kindAt := map[int][]hoAt{}
	for _, h := range ds.Handovers {
		kindAt[h.TestID] = append(kindAt[h.TestID], hoAt{h.TimeUTC.UnixNano(), h.Kind()})
	}
	for _, hs := range kindAt {
		sort.SliceStable(hs, func(i, j int) bool { return hs[i].t < hs[j].t })
	}
	d1 := map[radio.Operator]map[radio.Direction][]float64{}
	d2 := map[radio.Operator]map[radio.Direction][]float64{}
	byKind := map[radio.Operator]map[radio.Direction]map[string][]float64{}
	for testID, samples := range byTest {
		sort.Slice(samples, func(i, j int) bool { return samples[i].TimeUTC.Before(samples[j].TimeUTC) })
		for i := 2; i < len(samples)-2; i++ {
			if samples[i].HOs == 0 {
				continue
			}
			op, dir := samples[i].Op, samples[i].Dir
			t1 := samples[i].Mbps() - (samples[i-1].Mbps()+samples[i+1].Mbps())/2
			t2 := (samples[i+1].Mbps()+samples[i+2].Mbps())/2 - (samples[i-2].Mbps()+samples[i-1].Mbps())/2
			if d1[op] == nil {
				d1[op] = map[radio.Direction][]float64{}
				d2[op] = map[radio.Direction][]float64{}
			}
			d1[op][dir] = append(d1[op][dir], t1)
			d2[op][dir] = append(d2[op][dir], t2)

			// Attribute the interval to the kind of the HO that fell inside
			// it (the first, if several).
			kind := hoKindForInterval(kindAt[testID], samples[i])
			if kind != "" {
				if byKind[op] == nil {
					byKind[op] = map[radio.Direction]map[string][]float64{}
				}
				if byKind[op][dir] == nil {
					byKind[op][dir] = map[string][]float64{}
				}
				byKind[op][dir][kind] = append(byKind[op][dir][kind], t2)
			}
		}
	}
	build := func(v map[radio.Operator]map[radio.Direction][]float64) map[radio.Operator]map[radio.Direction]CDF {
		out := map[radio.Operator]map[radio.Direction]CDF{}
		for op, byDir := range v {
			out[op] = map[radio.Direction]CDF{}
			for dir, vals := range byDir {
				out[op][dir] = NewCDF(vals)
			}
		}
		return out
	}
	out := Fig12{
		DeltaT1: build(d1),
		DeltaT2: build(d2),
		ByKind:  map[radio.Operator]map[radio.Direction]map[string]CDF{},
	}
	for op, byDir := range byKind {
		out.ByKind[op] = map[radio.Direction]map[string]CDF{}
		for dir, byK := range byDir {
			out.ByKind[op][dir] = map[string]CDF{}
			for k, vals := range byK {
				out.ByKind[op][dir][k] = NewCDF(vals)
			}
		}
	}
	return out
}

// hoAt is one handover's time (Unix ns) and Fig. 12 kind.
type hoAt struct {
	t    int64
	kind string
}

// hoKindForInterval returns the kind of the earliest handover whose
// timestamp falls within the 500 ms interval (end-500ms, end] ending at the
// sample's time, or "" if none does. hs is one test's handovers sorted by
// time; handovers at the same instant keep their dataset order.
func hoKindForInterval(hs []hoAt, s dataset.ThroughputSample) string {
	end := s.TimeUTC.UnixNano()
	start := end - 500*1e6
	i := sort.Search(len(hs), func(i int) bool { return hs[i].t > start })
	if i < len(hs) && hs[i].t <= end {
		return hs[i].kind
	}
	return ""
}

// HOKinds lists the Fig. 12 classification labels.
var HOKinds = []string{"4G->4G", "4G->5G", "5G->4G", "5G->5G"}

// Render prints the figure.
func (f Fig12) Render() string {
	var b strings.Builder
	b.WriteString("Fig 12: throughput impact of handovers\n")
	for _, op := range radio.Operators() {
		for _, dir := range radio.Directions() {
			if c, ok := f.DeltaT1[op][dir]; ok && c.N() > 0 {
				fmt.Fprintf(&b, "  %-9s %s dT1 n=%-5d med=%7.2f fracNeg=%.2f | dT2 med=%7.2f fracPos=%.2f\n",
					op, dir, c.N(), c.Median(), c.FracBelow(0),
					f.DeltaT2[op][dir].Median(), 1-f.DeltaT2[op][dir].FracBelow(0))
			}
			for _, k := range HOKinds {
				if c, ok := f.ByKind[op][dir][k]; ok && c.N() > 0 {
					fmt.Fprintf(&b, "    %s %s dT2[%s] n=%d med=%.2f\n", op, dir, k, c.N(), c.Median())
				}
			}
		}
	}
	return b.String()
}
