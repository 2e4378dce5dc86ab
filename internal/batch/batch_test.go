package batch

import (
	"testing"

	"wheels/internal/deploy"
	"wheels/internal/geo"
	"wheels/internal/radio"
	"wheels/internal/ran"
	"wheels/internal/servers"
	"wheels/internal/sim"
	"wheels/internal/transport"
)

// testDrive is a synthetic straight-line drive at 60 mph: the fixture
// avoids the campaign's trace machinery so the tests pin down this package
// alone.
type testDrive struct{ cur *geo.Cursor }

func (d testDrive) at(t float64) geo.Sample {
	km := 60 * geo.KmPerMile / 3600 * t
	return geo.Sample{
		T: t, Km: km, Pos: d.cur.PosAt(km), MPH: 60,
		Road: d.cur.RoadClassAt(km), Zone: d.cur.TimezoneAt(km),
	}
}

// testLane binds one Verizon lane to a fresh UE and latency model over the
// paper route.
func testLane(tb testing.TB, seed int64) (*Lane, testDrive) {
	tb.Helper()
	route := geo.NewRoute()
	rng := sim.NewRNG(seed)
	op := radio.Verizon
	dep := deploy.New(route, op, rng.Stream("deploy-"+op.String()))
	ln := &Lane{}
	ln.Bind(op, ran.NewUE(rng.Stream("ue-"+op.String()), dep), transport.NewLatencyModel(rng.Stream("lat-"+op.String()), op))
	return ln, testDrive{cur: route.Cursor()}
}

// startPhase puts the lane at the top of a phase at time t.
func startPhase(ln *Lane, d testDrive, id int, t float64, profile ran.Traffic, dir radio.Direction) {
	ln.UE.TakeHandovers()
	ln.StartPhase(id, t, profile, dir, servers.Server{Kind: servers.Cloud, Pos: d.at(t).Pos})
}

// runBulk drives one bulk phase of durSec seconds the way the campaign's
// test adapter does: Advance one transport tick, then feed the path state
// to the lane's flow.
func runBulk(ln *Lane, d testDrive, durSec float64) {
	ln.Bulk.Reset(durSec)
	for i := 0; float64(i)*transport.TickSec < durSec; i++ {
		s := d.at(ln.T + transport.TickSec)
		dl, ul, rtt, outage := ln.Advance(transport.TickSec, &s)
		cap := dl
		if ln.Dir == radio.Uplink {
			cap = ul
		}
		ln.Bulk.Tick(i, transport.PathState{CapBps: cap, BaseRTTms: rtt, Outage: outage})
	}
}

// TestStartPhaseClearsLane runs a full bulk phase to populate every lane
// buffer and accumulator, then rewinds with StartPhase and checks that no
// state from the previous phase leaks into the next — the property that
// makes lane reuse across tests (and across fleet seeds) sound.
func TestStartPhaseClearsLane(t *testing.T) {
	ln, d := testLane(t, 23)
	startPhase(ln, d, 1, 30, ran.BacklogDL, radio.Downlink)
	runBulk(ln, d, 20)
	if len(ln.Rows) == 0 {
		t.Fatal("phase produced no KPI rows; test setup is wrong")
	}

	startPhase(ln, d, 10, 120, ran.BacklogUL, radio.Uplink)
	if len(ln.Rows) != 0 || len(ln.HORecs) != 0 || len(ln.Pings) != 0 {
		t.Errorf("buffers not cleared: %d rows, %d handovers, %d pings",
			len(ln.Rows), len(ln.HORecs), len(ln.Pings))
	}
	if ln.T != 120 {
		t.Errorf("T = %v, want 120", ln.T)
	}
	if ln.Last != (ran.Snapshot{}) || ln.LastS != (geo.Sample{}) {
		t.Error("Last/LastS not zeroed")
	}
	if ln.accDur != 0 || ln.accRSRP != 0 || ln.accSINR != 0 || ln.accBLER != 0 || ln.accHOs != 0 {
		t.Errorf("KPI accumulators not zeroed: dur=%v rsrp=%v sinr=%v bler=%v hos=%d",
			ln.accDur, ln.accRSRP, ln.accSINR, ln.accBLER, ln.accHOs)
	}
	if ln.wireInit {
		t.Error("wire-RTT memo not invalidated")
	}
	if ln.Dir != radio.Uplink || ln.Profile != ran.BacklogUL || ln.TestID != 10 {
		t.Errorf("phase parameters not applied: dir=%v profile=%v id=%d", ln.Dir, ln.Profile, ln.TestID)
	}
}

// TestRecycleKeepsBuffersDropsState checks the pooled-adapter contract:
// Recycle returns a lane with zeroed identity and phase state but with the
// grown backing arrays still attached, so a recycled lane neither leaks
// pointers nor re-allocates its way back to working size.
func TestRecycleKeepsBuffersDropsState(t *testing.T) {
	ln, d := testLane(t, 23)
	startPhase(ln, d, 1, 30, ran.BacklogDL, radio.Downlink)
	runBulk(ln, d, 20)

	rowCap, hoCap := cap(ln.Rows), cap(ln.HORecs)
	if rowCap == 0 {
		t.Fatal("phase produced no KPI rows; test setup is wrong")
	}
	r := ln.Recycle()
	if r.UE != nil || r.Lat != nil || r.Op != 0 || r.T != 0 || r.TestID != 0 {
		t.Errorf("Recycle kept identity/phase state: %+v", r)
	}
	if len(r.Rows) != 0 || len(r.HORecs) != 0 || len(r.Pings) != 0 {
		t.Errorf("Recycle kept buffer contents: %d rows, %d handovers, %d pings",
			len(r.Rows), len(r.HORecs), len(r.Pings))
	}
	if cap(r.Rows) != rowCap || cap(r.HORecs) != hoCap {
		t.Errorf("Recycle dropped backing arrays: row cap %d→%d, handover cap %d→%d",
			rowCap, cap(r.Rows), hoCap, cap(r.HORecs))
	}
}

// TestLaneSteadyStateAllocFree drives one lane through warm-up bulk phases
// until its buffers reach their working size, then requires that further
// phases — Advance plus the flow tick, every transport tick — allocate
// nothing at all: the per-tick hot loop touches only pre-grown lane state.
func TestLaneSteadyStateAllocFree(t *testing.T) {
	ln, d := testLane(t, 23)
	// Re-drive the same route window each run: the per-run work is then
	// constant, and the UE's unique-cell set saturates during warm-up so
	// its map stops growing.
	runOnce := func() {
		startPhase(ln, d, 1, 30, ran.BacklogDL, radio.Downlink)
		runBulk(ln, d, 20)
	}
	for i := 0; i < 5; i++ {
		runOnce()
	}
	if avg := testing.AllocsPerRun(5, runOnce); avg != 0 {
		t.Errorf("steady-state phase allocates %.1f times per run, want 0", avg)
	}
}
