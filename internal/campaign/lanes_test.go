package campaign

import (
	"runtime"
	"testing"
	"time"

	"wheels/internal/dataset"
)

// TestLanesDeterministicAndLeakFree runs a short campaign with every
// battery on — static city tests, passive loggers, speed tests and the app
// runs — at one, two and four Ps. The phone lanes run free of each other,
// so the schedulers' interleavings differ between the runs; the digests
// must not. Every lane goroutine must also have exited once
// RunTo returns. The test runs under -short, so the race job checks the
// lanes and the ordered replay too.
func TestLanesDeterministicAndLeakFree(t *testing.T) {
	cfg := DefaultConfig(23)
	cfg.KmLimit = 25

	run := func(procs int) string {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		c := New(cfg)
		base := runtime.NumGoroutine()
		h := dataset.NewHashSink()
		c.RunTo(h)
		// A lane's wg.Done precedes its goroutine's exit by a few
		// instructions, so allow the scheduler a moment to retire it.
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > base {
			t.Errorf("GOMAXPROCS(%d): %d goroutines after RunTo, %d before", procs, n, base)
		}
		return h.Sum()
	}

	want := run(1)
	for _, procs := range []int{2, 4} {
		if got := run(procs); got != want {
			t.Errorf("GOMAXPROCS(%d): digest %s, want %s (GOMAXPROCS(1))", procs, got, want)
		}
	}

	// The run must exercise every table the lanes replay.
	col := dataset.NewCollector(cfg.Seed)
	New(cfg).RunTo(col)
	ds := col.Dataset()
	var static int
	for _, s := range ds.Tests {
		if s.Static {
			static++
		}
	}
	if static == 0 || len(ds.Apps) == 0 || len(ds.Passive) == 0 || len(ds.RTT) == 0 || len(ds.Handovers) == 0 {
		t.Fatalf("campaign too short to cover the lanes: %d static tests, %d app runs, %d passive, %d rtt, %d handovers",
			static, len(ds.Apps), len(ds.Passive), len(ds.RTT), len(ds.Handovers))
	}
}
