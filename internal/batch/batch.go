// Package batch holds the per-phone tick core of the campaign: a Lane is
// one phone's state for one test phase — the UE and latency-model
// bindings, the 500 ms KPI accumulators, and the buffered outputs (KPI
// rows, handover records, RTT pings) — and Lane.Advance steps it one tick
// along the drive. The campaign's test adapter embeds a Lane, so every
// driving and static test of every phone runs through this code.
//
// Each phone draws only from its own label-derived RNG streams, which is
// what lets the phones run their tests on goroutines of their own without
// changing a single draw.
package batch

import (
	"time"

	"wheels/internal/dataset"
	"wheels/internal/geo"
	"wheels/internal/radio"
	"wheels/internal/ran"
	"wheels/internal/servers"
	"wheels/internal/sim"
	"wheels/internal/transport"
)

// Row is one 500 ms cross-layer KPI accumulation — the XCAL row that gets
// joined with the application-layer throughput sample.
type Row struct {
	T          float64
	Tech       radio.Tech
	RSRP, SINR float64 // interval means
	BLER       float64
	MCS        int // last in interval
	CCDL, CCUL int
	MPH, Km    float64
	HOs        int
	Outage     bool
}

// Ping is one successful RTT probe, with the path state it was taken at.
type Ping struct {
	T, Ms   float64
	Tech    radio.Tech
	MPH, Km float64
	Zone    geo.Timezone
}

// secs converts simulation seconds to a time.Duration.
func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// Lane is one phone's state for one test phase: the UE and latency-model
// bindings, the phase parameters, the evolving per-tick snapshot, the KPI
// accumulators, and the buffered outputs (KPI rows, handover records, RTT
// pings). The campaign's test adapter embeds a Lane and recycles it across
// tests.
type Lane struct {
	// Identity, bound once per campaign.
	Op  radio.Operator
	UE  *ran.UE // nil for static (pinned-link) lanes
	Lat *transport.LatencyModel

	// Per-phase parameters.
	TestID  int
	Profile ran.Traffic
	Dir     radio.Direction
	Server  servers.Server

	// Evolving per-tick state.
	T     float64
	Last  ran.Snapshot
	LastS geo.Sample

	// Buffered phase outputs.
	Rows   []Row
	HORecs []dataset.HandoverRecord
	Pings  []Ping
	Bulk   transport.BulkRunner

	// 500 ms KPI accumulation window.
	accDur  float64
	accRSRP float64
	accSINR float64
	accBLER float64
	accHOs  int

	// Wire-RTT memo: the propagation delay to the test server depends only
	// on the vehicle coordinate, which changes once per trace sample (the
	// extrapolation between samples moves Km, not Pos), so the Haversine is
	// recomputed only when the coordinate actually moves.
	wirePos  geo.LatLon
	wireMs   float64
	wireInit bool
}

// Bind attaches the lane to its phone. Called on every pooled-adapter
// checkout.
func (ln *Lane) Bind(op radio.Operator, ue *ran.UE, lat *transport.LatencyModel) {
	ln.Op, ln.UE, ln.Lat = op, ue, lat
}

// StartPhase rewinds the lane for a new test starting at time t, keeping
// the backing arrays of the output buffers. The caller is responsible for
// draining stale UE handover events first (the adapter does it at its
// phase-setup point so the drop stays visible at the call site).
func (ln *Lane) StartPhase(id int, t float64, profile ran.Traffic, dir radio.Direction, server servers.Server) {
	ln.TestID = id
	ln.Profile, ln.Dir, ln.Server = profile, dir, server
	ln.T = t
	ln.Last, ln.LastS = ran.Snapshot{}, geo.Sample{}
	ln.Rows, ln.HORecs, ln.Pings = ln.Rows[:0], ln.HORecs[:0], ln.Pings[:0]
	ln.accDur, ln.accRSRP, ln.accSINR, ln.accBLER, ln.accHOs = 0, 0, 0, 0, 0
	ln.wireInit = false
}

// Recycle returns a zero lane that keeps the backing arrays of the output
// buffers, so a pooled adapter's lane stops allocating once the buffers
// reach a test's working size.
func (ln *Lane) Recycle() Lane {
	return Lane{
		Rows:   ln.Rows[:0],
		HORecs: ln.HORecs[:0],
		Pings:  ln.Pings[:0],
		Bulk:   ln.Bulk.Recycle(),
	}
}

// Advance moves the lane forward dt seconds with the vehicle at sample s
// (which must be the trace position for time ln.T+dt) and returns the
// current path condition in both directions. The radio snapshot lands
// directly in ln.Last — no per-tick state is copied up the call chain.
func (ln *Lane) Advance(dt float64, s *geo.Sample) (capDL, capUL, rttMs float64, outage bool) {
	ln.T += dt
	ln.UE.StepInto(&ln.Last, ln.T, dt, s.Km, s.MPH, s.Road, s.Zone, ln.Profile)
	ln.drainHandovers()
	return ln.finish(dt, s)
}

// drainHandovers consumes the UE's pending handover events into the lane's
// record buffer. Advance calls it once per tick.
func (ln *Lane) drainHandovers() {
	for _, ev := range ln.UE.TakeHandovers() {
		ln.accHOs++
		ln.HORecs = append(ln.HORecs, dataset.HandoverRecord{
			TestID: ln.TestID, Op: ln.Op, TimeUTC: sim.TripStart.UTC().Add(secs(ev.T)),
			DurSec: ev.DurSec, FromTech: ev.From.Tech, ToTech: ev.To.Tech,
			FromCell: ev.From.ID(), ToCell: ev.To.ID(), Dir: ln.Dir,
		})
	}
}

// staticDistKm is the UE-to-cell distance of the static tests: the team
// measured facing a chosen base station from close range.
const staticDistKm = 0.04

// AdvanceStatic is Advance for a static test: the lane is pinned to a
// fixed position and a forced-technology link instead of a moving UE.
func (ln *Lane) AdvanceStatic(dt float64, link *radio.Link, tech radio.Tech, km float64, pos geo.LatLon, zone geo.Timezone) (capDL, capUL, rttMs float64, outage bool) {
	ln.T += dt
	ln.Last = ran.Snapshot{T: ln.T, Tech: tech}
	link.StepInto(&ln.Last.Link, dt, staticDistKm, 0, geo.RoadCity)
	ln.Last.CapDL, ln.Last.CapUL = ln.Last.Link.CapDL, ln.Last.Link.CapUL
	s := geo.Sample{T: ln.T, Km: km, Pos: pos, MPH: 0, Road: geo.RoadCity, Zone: zone}
	return ln.finish(dt, &s)
}

// finish accumulates the 500 ms KPI row and composes the end-to-end path
// state for the step, reading the radio snapshot already landed in ln.Last.
func (ln *Lane) finish(dt float64, s *geo.Sample) (capDL, capUL, rttMs float64, outage bool) {
	snap := &ln.Last
	ln.LastS = *s

	ln.accDur += dt
	ln.accRSRP += snap.Link.RSRPdBm * dt
	ln.accSINR += snap.Link.SINRdB * dt
	ln.accBLER += snap.Link.BLER * dt
	if ln.accDur >= transport.SampleIntervalSec-1e-9 {
		ln.Rows = append(ln.Rows, Row{
			T:    ln.T,
			Tech: snap.Tech,
			RSRP: ln.accRSRP / ln.accDur,
			SINR: ln.accSINR / ln.accDur,
			BLER: ln.accBLER / ln.accDur,
			MCS:  snap.Link.MCS,
			CCDL: snap.Link.CCDown, CCUL: snap.Link.CCUp,
			MPH: s.MPH, Km: s.Km,
			HOs:    ln.accHOs,
			Outage: snap.Outage,
		})
		ln.accDur, ln.accRSRP, ln.accSINR, ln.accBLER, ln.accHOs = 0, 0, 0, 0, 0
	}

	if !ln.wireInit || s.Pos != ln.wirePos {
		ln.wireInit = true
		ln.wirePos = s.Pos
		ln.wireMs = servers.PropagationRTTms(s.Pos, ln.Server)
	}
	rttMs = ln.Lat.RTTms(dt, snap.Tech, ln.wireMs, s.MPH)
	return snap.CapDL, snap.CapUL, rttMs, snap.Outage
}

// HighSpeedFrac returns the fraction of recorded rows on 5G mid/mmWave.
func (ln *Lane) HighSpeedFrac() float64 {
	if len(ln.Rows) == 0 {
		return 0
	}
	n := 0
	for _, r := range ln.Rows {
		if r.Tech.IsHighSpeed() && !r.Outage {
			n++
		}
	}
	return float64(n) / float64(len(ln.Rows))
}

// HOCount returns the number of handovers recorded during the phase.
func (ln *Lane) HOCount() int { return len(ln.HORecs) }
