package dataset

import (
	"reflect"
	"testing"
	"time"

	"wheels/internal/radio"
)

// shardPart builds a tiny dataset with locally-numbered ids 1..n across the
// id-carrying tables, plus one passive sample.
func shardPart(seed int64, n int) *Dataset {
	d := &Dataset{Seed: seed}
	at := time.Date(2022, 8, 8, 15, 0, 0, 0, time.UTC)
	for id := 1; id <= n; id++ {
		d.Thr = append(d.Thr, ThroughputSample{TestID: id, Op: radio.Verizon, TimeUTC: at, Bps: 1e6})
		d.RTT = append(d.RTT, RTTSample{TestID: id, Op: radio.TMobile, TimeUTC: at, Ms: 50})
		d.Handovers = append(d.Handovers, HandoverRecord{TestID: id, Op: radio.ATT, TimeUTC: at})
		d.Tests = append(d.Tests, TestSummary{ID: id, Op: radio.Verizon, Kind: TestBulkDL, StartUTC: at})
		d.Apps = append(d.Apps, AppRun{ID: id, Op: radio.Verizon, App: TestAR, StartUTC: at})
	}
	d.Passive = append(d.Passive, PassiveSample{Op: radio.Verizon, TimeUTC: at, Tech: radio.LTE, Km: float64(n)})
	return d
}

// renumberParts merges the parts the way RunShardedTo does: each part
// replays through one Renumber in route order, sealed with Advance.
func renumberParts(parts ...*Dataset) *Dataset {
	col := NewCollector(23)
	r := NewRenumber(col)
	for _, p := range parts {
		p.EmitTo(r)
		r.Advance()
	}
	return col.Dataset()
}

func testIDs(d *Dataset) []int {
	var ids []int
	for _, ts := range d.Tests {
		ids = append(ids, ts.ID)
	}
	return ids
}

// TestRenumberShardsInRouteOrder: each part's ids shift past the running
// maximum of the parts before it, consistently in every id-carrying table,
// while passive samples pass through unshifted.
func TestRenumberShardsInRouteOrder(t *testing.T) {
	parts := []*Dataset{shardPart(23, 3), {Seed: 23}, shardPart(23, 2), shardPart(23, 1)}
	merged := renumberParts(parts...)
	// Ids must be campaign-unique and increase in shard order: 1..3, 4..5, 6.
	if got, want := testIDs(merged), []int{1, 2, 3, 4, 5, 6}; !reflect.DeepEqual(got, want) {
		t.Fatalf("test ids = %v, want %v", got, want)
	}
	// Every table shifts consistently: the second shard's first record is 4.
	if merged.Thr[3].TestID != 4 || merged.RTT[3].TestID != 4 ||
		merged.Handovers[3].TestID != 4 || merged.Apps[3].ID != 4 {
		t.Error("tables did not shift consistently across the merge")
	}
	var wantPassive []PassiveSample
	for _, p := range parts {
		wantPassive = append(wantPassive, p.Passive...)
	}
	if !reflect.DeepEqual(merged.Passive, wantPassive) {
		t.Errorf("passive samples = %+v, want the parts' samples unchanged in order", merged.Passive)
	}
	if got := merged.MaxTestID(); got != 6 {
		t.Errorf("MaxTestID = %d, want 6", got)
	}
}

// TestRenumberEmptyParts is the fleet-reducer regression: a seed (or shard)
// whose campaign yields zero tests of some kind produces an empty part, and
// the merge must absorb it without panicking or breaking id contiguity.
func TestRenumberEmptyParts(t *testing.T) {
	merged := renumberParts(&Dataset{}, shardPart(23, 2), &Dataset{}, shardPart(23, 1))
	if got, want := testIDs(merged), []int{1, 2, 3}; !reflect.DeepEqual(got, want) {
		t.Fatalf("test ids = %v, want %v", got, want)
	}
	empty := renumberParts(&Dataset{}, &Dataset{})
	if got := empty.MaxTestID(); got != 0 || len(empty.Thr)+len(empty.Tests)+len(empty.Passive) != 0 {
		t.Errorf("all-empty merge = max id %d with records %+v; want 0 and none", got, empty)
	}
}

func TestMaxTestIDOnEmpty(t *testing.T) {
	d := &Dataset{}
	if got := d.MaxTestID(); got != 0 {
		t.Errorf("empty MaxTestID = %d, want 0", got)
	}
}
