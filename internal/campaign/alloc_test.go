package campaign

import (
	"testing"

	"wheels/internal/dataset"
	"wheels/internal/radio"
)

// TestTestLifecycleAllocationFree pins the steady-state cost of one test in
// the campaign loop at zero allocations. Once a phone has warmed up, the
// pooled adapter's lane buffers and the reused phase Collector have grown
// to a test's working size, so a bulk test in either direction and a ping
// test — tick loop, KPI join and every emitted row included — allocate
// nothing.
func TestTestLifecycleAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops pooled adapters at random")
	}
	c := New(QuickConfig(23, 40))
	ph := c.phones[0]
	t0 := c.Trace.Samples[0].T + 60
	var col dataset.Collector
	for _, tc := range []struct {
		name string
		run  func(id int)
	}{
		{"bulk-dl", func(id int) { c.runBulk(&col, id, ph, t0, radio.Downlink, nil) }},
		{"bulk-ul", func(id int) { c.runBulk(&col, id, ph, t0, radio.Uplink, nil) }},
		{"rtt", func(id int) { c.runRTT(&col, id, ph, t0, nil) }},
	} {
		id := 0
		once := func() {
			col.Reset()
			id++
			tc.run(id)
		}
		for i := 0; i < 3; i++ {
			once()
		}
		if avg := testing.AllocsPerRun(10, once); avg != 0 {
			t.Errorf("%s: a warm test allocates %.1f times, want 0", tc.name, avg)
		}
		if len(col.D.Tests) != 1 {
			t.Fatalf("%s: emitted %d test summaries, want 1", tc.name, len(col.D.Tests))
		}
	}
}
