package dataset

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"wheels/internal/geo"
	"wheels/internal/radio"
	"wheels/internal/servers"
)

func sampleDataset() *Dataset {
	t0 := time.Date(2022, 8, 8, 15, 0, 0, 0, time.UTC)
	return &Dataset{
		Seed: 23,
		Thr: []ThroughputSample{
			{TestID: 1, Op: radio.Verizon, Dir: radio.Downlink, TimeUTC: t0, Bps: 42.5e6,
				Tech: radio.NRMid, RSRPdBm: -97.25, SINRdB: 12.5, MCS: 19, BLER: 0.08, CC: 2,
				MPH: 64.2, Km: 1234.5, Zone: geo.Mountain, Road: geo.RoadHighway,
				Server: servers.Cloud, Static: false, HOs: 1},
			{TestID: 2, Op: radio.TMobile, Dir: radio.Uplink, TimeUTC: t0.Add(time.Minute),
				Bps: 1.2e6, Tech: radio.LTE, RSRPdBm: -113, SINRdB: 1, MCS: 4, BLER: 0.2, CC: 1,
				MPH: 12, Km: 10, Zone: geo.Pacific, Road: geo.RoadCity,
				Server: servers.Edge, Static: true, HOs: 0},
		},
		RTT: []RTTSample{
			{TestID: 3, Op: radio.ATT, TimeUTC: t0, Ms: 81.5, Tech: radio.LTEA, MPH: 70,
				Km: 2000, Zone: geo.Central, Server: servers.Cloud},
		},
		Handovers: []HandoverRecord{
			{TestID: 1, Op: radio.Verizon, TimeUTC: t0.Add(2 * time.Second), DurSec: 0.053,
				FromTech: radio.LTEA, ToTech: radio.NRMid, FromCell: "V-LTE-A-7", ToCell: "V-5G-mid-11",
				Dir: radio.Downlink},
		},
		Tests: []TestSummary{
			{ID: 1, Op: radio.Verizon, Kind: TestBulkDL, Dir: radio.Downlink, StartUTC: t0,
				DurSec: 30, Zone: geo.Mountain, Server: servers.Cloud, MeanBps: 30e6,
				StdFracBps: 0.7, HighSpeedFrac: 0.4, Miles: 0.5, HOCount: 2, RxBytes: 1e8},
		},
		Apps: []AppRun{
			{ID: 9, Op: radio.Verizon, App: TestAR, StartUTC: t0, DurSec: 20, Server: servers.Edge,
				Compressed: true, HighSpeedFrac: 1, HOCount: 3, MedianE2EMs: 214, OffloadFPS: 4.35,
				MAP: 30.1},
		},
		Passive: []PassiveSample{
			{Op: radio.ATT, TimeUTC: t0, Km: 55, Tech: radio.LTE, Cell: "A-LTE-10", Zone: geo.Pacific},
		},
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	d := sampleDataset()
	if err := d.Save(dir); err != nil {
		t.Fatalf("Save: %v", err)
	}
	got, err := Load(dir)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	got.Seed = d.Seed // seed is not serialized; compare the records
	if !reflect.DeepEqual(d.Thr, got.Thr) {
		t.Errorf("throughput samples round-trip mismatch:\n%+v\n%+v", d.Thr, got.Thr)
	}
	if !reflect.DeepEqual(d.RTT, got.RTT) {
		t.Error("RTT samples round-trip mismatch")
	}
	if !reflect.DeepEqual(d.Handovers, got.Handovers) {
		t.Error("handover records round-trip mismatch")
	}
	if !reflect.DeepEqual(d.Tests, got.Tests) {
		t.Error("test summaries round-trip mismatch")
	}
	if !reflect.DeepEqual(d.Apps, got.Apps) {
		t.Error("app runs round-trip mismatch")
	}
	if !reflect.DeepEqual(d.Passive, got.Passive) {
		t.Error("passive samples round-trip mismatch")
	}
}

func TestLoadRejectsCorruptRows(t *testing.T) {
	dir := t.TempDir()
	if err := sampleDataset().Save(dir); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, fileThr)
	corrupt := []byte("test_id,op,dir,time_utc,bps,tech,rsrp_dbm,sinr_db,mcs,bler,cc,mph,km,zone,road,server,static,hos\n" +
		"x,Verizon,DL,2022-08-08T15:00:00Z,1,LTE,-90,5,3,0.1,1,10,1,Pacific,city,cloud,false,0\n")
	if err := os.WriteFile(path, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir); err == nil {
		t.Error("Load accepted a row with a non-numeric test_id")
	}
}

func TestLoadRejectsUnknownEnum(t *testing.T) {
	dir := t.TempDir()
	if err := sampleDataset().Save(dir); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, fileRTT)
	corrupt := []byte("test_id,op,time_utc,ms,tech,mph,km,zone,server,static\n" +
		"1,Sprint,2022-08-08T15:00:00Z,50,LTE,10,1,Pacific,cloud,false\n")
	if err := os.WriteFile(path, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir); err == nil {
		t.Error("Load accepted an unknown operator")
	}
}

func TestLoadMissingDir(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "absent")); err == nil {
		t.Error("Load of a missing directory succeeded")
	}
}

// rewriteLine replaces the 1-based line n of the table file name under dir.
func rewriteLine(t *testing.T, dir, name string, n int, line string) {
	t.Helper()
	path := filepath.Join(dir, name)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(b), "\n")
	lines[n-1] = line
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestLoadRejectsSwappedHeader: a header with the right column count but
// two columns swapped would load every row with the two values swapped, so
// Load rejects it, naming the file, line 1 and both column names.
func TestLoadRejectsSwappedHeader(t *testing.T) {
	dir := t.TempDir()
	if err := sampleDataset().Save(dir); err != nil {
		t.Fatal(err)
	}
	rewriteLine(t, dir, fileRTT, 1, "test_id,op,time_utc,ms,tech,km,mph,zone,server,static")
	_, err := Load(dir)
	if err == nil {
		t.Fatal("Load accepted an rtt_samples.csv header with km and mph swapped")
	}
	for _, want := range []string{fileRTT + ":1:", `"km"`, `"mph"`} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not contain %s", err, want)
		}
	}
}

// TestLoadReportsFirstTableError: the tables decode concurrently, but the
// error Load reports is the first in canonical table order whichever table
// fails first, and a missing table still fails the load.
func TestLoadReportsFirstTableError(t *testing.T) {
	dir := t.TempDir()
	if err := fuzzSeedDataset().Save(dir); err != nil {
		t.Fatal(err)
	}
	rewriteLine(t, dir, fileRTT, 3, "2,Sprint,2022-08-08T15:00:00.5Z,63.2,LTE-A,30,5,Mountain,edge,false")
	rewriteLine(t, dir, filePassive, 2, "ATT,not-a-time,12.5,LTE,A-LTE-3,Eastern,false")
	for i := 0; i < 20; i++ {
		_, err := Load(dir)
		if err == nil {
			t.Fatal("Load accepted corrupt rtt_samples and passive_samples tables")
		}
		if !strings.Contains(err.Error(), fileRTT+":3:") {
			t.Fatalf("error %q does not name %s line 3", err, fileRTT)
		}
	}

	dir = t.TempDir()
	if err := fuzzSeedDataset().Save(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, fileHO)); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir); err == nil || !strings.Contains(err.Error(), fileHO) {
		t.Errorf("Load without %s: error %v, want one naming the missing table", fileHO, err)
	}
}

func TestFilters(t *testing.T) {
	d := sampleDataset()
	got := d.FilterThr(func(s ThroughputSample) bool { return s.Op == radio.Verizon })
	if len(got) != 1 || got[0].TestID != 1 {
		t.Errorf("FilterThr(Verizon) = %+v", got)
	}
	rtt := d.FilterRTT(func(s RTTSample) bool { return s.Ms > 100 })
	if len(rtt) != 0 {
		t.Errorf("FilterRTT(>100ms) = %+v, want empty", rtt)
	}
	if _, ok := d.TestByID(1); !ok {
		t.Error("TestByID(1) not found")
	}
	if _, ok := d.TestByID(99); ok {
		t.Error("TestByID(99) found a ghost")
	}
}

func TestHandoverKindAndVertical(t *testing.T) {
	h := HandoverRecord{FromTech: radio.NRMid, ToTech: radio.LTE}
	if h.Kind() != "5G->4G" || !h.Vertical() {
		t.Errorf("Kind = %q Vertical = %v, want 5G->4G / true", h.Kind(), h.Vertical())
	}
	h2 := HandoverRecord{FromTech: radio.LTE, ToTech: radio.LTE}
	if h2.Kind() != "4G->4G" || h2.Vertical() {
		t.Errorf("Kind = %q Vertical = %v, want 4G->4G / false", h2.Kind(), h2.Vertical())
	}
}

func TestMbps(t *testing.T) {
	s := ThroughputSample{Bps: 5e6}
	if s.Mbps() != 5 {
		t.Errorf("Mbps = %v, want 5", s.Mbps())
	}
}

func TestCompressedRoundTrip(t *testing.T) {
	dir := t.TempDir()
	d := sampleDataset()
	if err := d.SaveCompressed(dir); err != nil {
		t.Fatalf("SaveCompressed: %v", err)
	}
	// Only the .gz tables should be written.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if filepath.Ext(e.Name()) != ".gz" {
			t.Errorf("unexpected artifact %s", e.Name())
		}
	}
	got, err := LoadCompressed(dir)
	if err != nil {
		t.Fatalf("LoadCompressed: %v", err)
	}
	if !reflect.DeepEqual(d.Thr, got.Thr) || !reflect.DeepEqual(d.Apps, got.Apps) {
		t.Error("compressed round trip lost records")
	}
	if _, err := LoadCompressed(t.TempDir()); err == nil {
		t.Error("LoadCompressed of an empty dir succeeded")
	}
}

// TestLoadCompressedCorruptTable: a truncated .gz and a file that is not
// gzip at all each fail LoadCompressed with an error naming the table, and
// the streaming read leaves nothing behind in $TMPDIR.
func TestLoadCompressedCorruptTable(t *testing.T) {
	mangles := []struct {
		name string
		fn   func([]byte) []byte
	}{
		{"truncated", func(b []byte) []byte { return b[:len(b)/2] }},
		{"not gzip", func([]byte) []byte { return []byte("test_id,op\n1,Verizon\n") }},
	}
	type tc struct{ dir, table, mangle string }
	var cases []tc
	for _, m := range mangles {
		for _, table := range csvFiles {
			dir := t.TempDir()
			if err := fuzzSeedDataset().SaveCompressed(dir); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, table+".gz")
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, m.fn(b), 0o644); err != nil {
				t.Fatal(err)
			}
			cases = append(cases, tc{dir, table, m.name})
		}
	}
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	for _, c := range cases {
		_, err := LoadCompressed(c.dir)
		if err == nil {
			t.Errorf("%s %s: LoadCompressed succeeded", c.mangle, c.table)
			continue
		}
		if !strings.Contains(err.Error(), c.table+".gz") {
			t.Errorf("%s %s: error %q does not name the table file", c.mangle, c.table, err)
		}
	}
	left, err := os.ReadDir(tmp)
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Errorf("LoadCompressed left %d entries in $TMPDIR", len(left))
	}
}

// loadBenchDataset is a synthetic dataset of nThr throughput rows whose
// other tables keep the row proportions of a 1,500-km paper campaign
// (≈0.8 RTT, 1.9 passive and 0.1 handover rows per throughput row), with
// values that vary row to row so the gzip ratio stays realistic.
func loadBenchDataset(nThr int) *Dataset {
	base := fuzzSeedDataset()
	d := &Dataset{Seed: 23}
	for i := 0; i < nThr; i++ {
		at := base.Thr[0].TimeUTC.Add(time.Duration(i) * 500 * time.Millisecond)
		km := float64(i) * 0.031
		s := base.Thr[0]
		s.TestID, s.TimeUTC, s.Km, s.Bps, s.SINRdB = i/60, at, km, float64(i%977)*1.7e5, float64(i%41)*0.73-5
		d.Thr = append(d.Thr, s)
		if i%5 != 0 {
			r := base.RTT[0]
			r.TestID, r.TimeUTC, r.Km, r.Ms = i/60, at, km, 20+float64(i%313)*0.41
			d.RTT = append(d.RTT, r)
		}
		p := base.Passive[0]
		p.TimeUTC, p.Km, p.NoSvc = at, km, i%97 == 0
		d.Passive = append(d.Passive, p)
		if i%10 != 0 {
			d.Passive = append(d.Passive, p)
		}
		if i%9 == 0 {
			h := base.Handovers[0]
			h.TestID, h.TimeUTC, h.DurSec = i/60, at, 0.03+float64(i%17)*0.004
			d.Handovers = append(d.Handovers, h)
		}
		if i%30 == 0 {
			t := base.Tests[0]
			t.ID, t.StartUTC, t.MeanBps = i/30, at, float64(i%977)*1.7e5
			d.Tests = append(d.Tests, t)
		}
		if i%20 == 0 {
			a := base.Apps[0]
			a.ID, a.StartUTC, a.MedianE2EMs = i/20, at, 150+float64(i%89)
			d.Apps = append(d.Apps, a)
		}
	}
	return d
}

// BenchmarkLoadCompressed times LoadCompressed on loadBenchDataset(50000),
// written once before the timer starts.
func BenchmarkLoadCompressed(b *testing.B) {
	dir := b.TempDir()
	if err := loadBenchDataset(50000).SaveCompressed(dir); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := LoadCompressed(dir); err != nil {
			b.Fatal(err)
		}
	}
}
