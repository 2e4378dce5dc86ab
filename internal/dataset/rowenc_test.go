package dataset

import (
	"bytes"
	"testing"
	"time"

	"wheels/internal/sim"
)

// rowEnc's timestamp cache is a bit-exact replay of time.AppendFormat
// output. These tests pin that equivalence the same way quotef_test.go pins
// the exact-half fast path: exhaustively over the campaign's own timestamp
// cadence, and by fuzz over adversarial sequences that thrash the cache
// (minute boundaries, zone flips).

// tickZones are the zone shapes campaign timestamps can carry plus
// adversarial ones: UTC, fixed negative/positive offsets, and a sub-minute
// offset that must fail cache validation and fall back every call.
var tickZones = []*time.Location{
	time.UTC,
	time.FixedZone("EST", -5*3600),
	time.FixedZone("IST", 5*3600+1800),
	time.FixedZone("LMT", -4*3600-56*60-2), // sub-minute offset: cache must reject
}

func TestQuoteTIncrementalTicks(t *testing.T) {
	// The campaign clock: trip start, advancing by the 0.5 s tick across
	// many minute boundaries — the exact sequence the hot sinks format.
	var enc rowEnc
	tm := sim.TripStart.UTC()
	for i := 0; i < 4000; i++ {
		got := enc.quoteT(nil, tm)
		want := tm.AppendFormat(nil, timeLayout)
		if !bytes.Equal(got, want) {
			t.Fatalf("tick %d (%v): got %q want %q", i, tm, got, want)
		}
		tm = tm.Add(500 * time.Millisecond)
	}
}

func TestQuoteTIncrementalZones(t *testing.T) {
	var enc rowEnc
	base := time.Date(2024, 2, 29, 23, 58, 57, 0, time.UTC)
	for _, loc := range tickZones {
		for i := 0; i < 300; i++ {
			tm := base.In(loc).Add(time.Duration(i) * 500 * time.Millisecond)
			got := enc.quoteT(nil, tm)
			want := tm.AppendFormat(nil, timeLayout)
			if !bytes.Equal(got, want) {
				t.Fatalf("zone %v tick %d (%v): got %q want %q", loc, i, tm, got, want)
			}
		}
	}
}

// TestQuoteTIncrementalExtremes covers renderings the cache must refuse:
// pre-1970 instants (negative unix seconds), 5-digit years, year 1.
func TestQuoteTIncrementalExtremes(t *testing.T) {
	var enc rowEnc
	for _, tm := range []time.Time{
		time.Date(1969, 12, 31, 23, 59, 59, 123, time.UTC),
		time.Date(1969, 12, 31, 23, 59, 59, 500000000, time.UTC),
		time.Date(12024, 1, 1, 0, 0, 30, 0, time.UTC),
		time.Date(1, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(1902, 6, 1, 4, 5, 6, 700, time.FixedZone("X", -11*3600)),
	} {
		for i := 0; i < 3; i++ { // repeat: a wrongly-primed cache would hit
			got := enc.quoteT(nil, tm)
			want := tm.AppendFormat(nil, timeLayout)
			if !bytes.Equal(got, want) {
				t.Fatalf("%v: got %q want %q", tm, got, want)
			}
			tm = tm.Add(500 * time.Millisecond)
		}
	}
}

// FuzzQuoteTIncremental drives one shared encoder over a derived sequence of
// instants — same-minute steps, random jumps, zone flips — and asserts every
// rendering matches time.AppendFormat. The sequence matters: a stale or
// wrongly-primed cache only shows up on the calls after the one that primed
// it.
func FuzzQuoteTIncremental(f *testing.F) {
	f.Add(int64(0), int64(500_000_000), uint8(0), uint8(16))
	f.Add(sim.TripStart.Unix(), int64(250_000_000), uint8(1), uint8(64))
	f.Add(int64(-12345), int64(999_999_999), uint8(3), uint8(32))
	f.Add(int64(253402300799), int64(1), uint8(2), uint8(8)) // year 9999 edge
	f.Fuzz(func(t *testing.T, startSec, stepNs int64, zone, steps uint8) {
		loc := tickZones[int(zone)%len(tickZones)]
		if stepNs < 0 {
			stepNs = -stepNs
		}
		stepNs %= 3_600_000_000_000 // up to an hour per step
		var enc rowEnc
		tm := time.Unix(startSec%4_000_000_000, stepNs%1_000_000_000).In(loc)
		for i := 0; i < int(steps%96)+2; i++ {
			got := enc.quoteT(nil, tm)
			want := tm.AppendFormat(nil, timeLayout)
			if !bytes.Equal(got, want) {
				t.Fatalf("step %d (%v): got %q want %q", i, tm, got, want)
			}
			// Alternate small in-minute steps with the raw jump so both the
			// cache-hit and re-prime paths run inside one sequence.
			if i%3 == 2 {
				tm = tm.Add(time.Duration(stepNs))
			} else {
				tm = tm.Add(500 * time.Millisecond)
			}
		}
	})
}
