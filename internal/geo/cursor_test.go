package geo

import (
	"testing"

	"wheels/internal/sim"
)

// TestCursorMatchesRoute sweeps the route forward (with occasional rewinds)
// and checks every cursor answer against the binary-search Route methods.
func TestCursorMatchesRoute(t *testing.T) {
	r := NewRoute()
	cur := r.Cursor()
	kms := []float64{-1, 0, 0.05, 3, 120, 119, 500, 2000, 1999.5, 4000,
		r.LengthKm() - 0.01, r.LengthKm(), r.LengthKm() + 50, 10, 5700}
	for km := 0.0; km < r.LengthKm(); km += 7.3 {
		kms = append(kms, km)
	}
	for _, km := range kms {
		if got, want := cur.PosAt(km), r.PosAt(km); got != want {
			t.Fatalf("PosAt(%.2f): cursor %v, route %v", km, got, want)
		}
		if got, want := cur.RoadClassAt(km), r.RoadClassAt(km); got != want {
			t.Fatalf("RoadClassAt(%.2f): cursor %v, route %v", km, got, want)
		}
		if got, want := cur.TimezoneAt(km), r.TimezoneAt(km); got != want {
			t.Fatalf("TimezoneAt(%.2f): cursor %v, route %v", km, got, want)
		}
		gc, gok := cur.CityAt(km)
		wc, wok := r.CityAt(km)
		if gc.Name != wc.Name || gok != wok {
			t.Fatalf("CityAt(%.2f): cursor (%q,%v), route (%q,%v)", km, gc.Name, gok, wc.Name, wok)
		}
	}
}

// TestTraceCursorMatchesAt sweeps a drive trace forward (with rewinds) and
// checks the cursor index against the binary-search Trace.At. It then
// replays the pooled test-adapter pattern: a cursor Reset to index 0 whose
// first lookup lands anywhere in the multi-day trace, which takes the
// far-ahead binary search rather than the O(1) bump.
func TestTraceCursorMatchesAt(t *testing.T) {
	r := NewRoute()
	tr := Drive(r, sim.NewRNG(23).Stream("drive"))
	cur := tr.Cursor()
	last := tr.Samples[len(tr.Samples)-1].T
	times := []float64{-5, 0, 0.5, 100, 99.7, 5000, 4999, last, last + 10}
	for tt := 0.0; tt < last; tt += last / 2000 {
		times = append(times, tt)
	}
	for _, tt := range times {
		if got, want := cur.At(tt), tr.At(tt); got != want {
			t.Fatalf("At(%.2f): cursor %d, trace %d", tt, got, want)
		}
	}

	// check resets a cursor as newAdapter does, then looks up tt followed
	// by a few 20 ms ticks of the test that would start there.
	var pooled TraceCursor
	check := func(what string, tt float64) {
		t.Helper()
		pooled.Reset(tr)
		for k := 0; k < 3; k++ {
			at := tt + 0.02*float64(k)
			if got, want := pooled.At(at), tr.At(at); got != want {
				t.Fatalf("%s: At(%.2f) after Reset: cursor %d, trace %d", what, at, got, want)
			}
		}
	}

	// Every test start of a round-robin schedule over the whole trace
	// (bulk DL, bulk UL, ping, speed test, app runs, each plus its setup
	// gap), including the instants that fall inside an overnight gap
	// before the schedule jumps to the next day's first sample.
	durs := []float64{35, 35, 25, 20, 65, 65, 65, 65, 185, 65}
	starts, gaps := 0, 0
	for tt, k := tr.Samples[0].T, 0; tt <= last; k++ {
		check("test start", tt)
		starts++
		if idx := tr.At(tt); tt-tr.Samples[idx].T > 2 {
			gaps++
			tt = tr.Samples[idx+1].T
			continue
		}
		tt += durs[k%len(durs)]
	}
	if gaps == 0 {
		t.Fatalf("schedule of %d starts never entered an overnight gap", starts)
	}
	// Inside every overnight gap, at its midpoint and just before the
	// next day's first sample.
	for i := 1; i < len(tr.Samples); i++ {
		if a, b := tr.Samples[i-1].T, tr.Samples[i].T; b-a > 2 {
			check("gap midpoint", (a+b)/2)
			check("gap end", b-0.001)
			check("day start", b)
		}
	}
	// The bump/search boundary: exactly cursorBumpSamples and one more
	// ahead of the cursor, from a reset cursor and from mid-trace.
	for _, base := range []int{0, len(tr.Samples) / 2} {
		for _, ahead := range []int{cursorBumpSamples - 1, cursorBumpSamples, cursorBumpSamples + 1} {
			pooled.Reset(tr)
			if got, want := pooled.At(tr.Samples[base].T), base; got != want {
				t.Fatalf("At(sample %d): cursor %d", base, got)
			}
			tt := tr.Samples[base+ahead].T
			for _, at := range []float64{tt - 0.5, tt, tt + 0.5} {
				c := pooled
				if got, want := c.At(at), tr.At(at); got != want {
					t.Fatalf("%d samples ahead of %d: At(%.2f): cursor %d, trace %d", ahead, base, at, got, want)
				}
			}
		}
	}
	// Past the end of the trace.
	check("last sample", last)
	check("past the end", last+1)
	check("far past the end", last+1e6)
}

// TestCursorAllocationFree pins the cursor queries at zero allocations.
func TestCursorAllocationFree(t *testing.T) {
	r := NewRoute()
	cur := r.Cursor()
	km := 0.0
	allocs := testing.AllocsPerRun(100, func() {
		_ = cur.RoadClassAt(km)
		_ = cur.TimezoneAt(km)
		km += 3.1
	})
	if allocs != 0 {
		t.Errorf("route cursor = %.1f allocs/op, want 0", allocs)
	}
}

// BenchmarkRouteCursor times the monotone positional queries the campaign
// loop issues per tick, via the memoized cursor.
func BenchmarkRouteCursor(b *testing.B) {
	r := NewRoute()
	cur := r.Cursor()
	total := r.LengthKm()
	km := 0.0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = cur.RoadClassAt(km)
		_ = cur.TimezoneAt(km)
		km += 0.01
		if km >= total {
			km = 0
		}
	}
}

// BenchmarkRouteDirect is the same sweep through the binary-search Route
// methods, for comparison against BenchmarkRouteCursor.
func BenchmarkRouteDirect(b *testing.B) {
	r := NewRoute()
	total := r.LengthKm()
	km := 0.0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = r.RoadClassAt(km)
		_ = r.TimezoneAt(km)
		km += 0.01
		if km >= total {
			km = 0
		}
	}
}
