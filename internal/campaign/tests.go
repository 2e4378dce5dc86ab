package campaign

import (
	"fmt"
	"math"
	"sync"
	"time"

	"wheels/internal/apps/gaming"
	"wheels/internal/apps/offload"
	"wheels/internal/apps/video"
	"wheels/internal/batch"
	"wheels/internal/dataset"
	"wheels/internal/deploy"
	"wheels/internal/geo"
	"wheels/internal/radio"
	"wheels/internal/ran"
	"wheels/internal/sim"
	"wheels/internal/transport"
	"wheels/internal/xcal"
)

// secs converts simulation seconds to a time.Duration.
func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// utc converts a simulation time to the wall clock.
func utc(t float64) time.Time { return sim.TripStart.UTC().Add(secs(t)) }

// bulkProfile maps a transfer direction to its traffic profile and test
// kind.
func bulkProfile(dir radio.Direction) (ran.Traffic, dataset.TestKind) {
	if dir == radio.Uplink {
		return ran.BacklogUL, dataset.TestBulkUL
	}
	return ran.BacklogDL, dataset.TestBulkDL
}

// runBulk runs one nuttcp-style bulk transfer and records its samples,
// KPI-joined rows, handovers, and the per-test summary. A non-nil st makes
// it a static test.
func (c *Campaign) runBulk(sink dataset.Sink, id int, ph *phone, t float64, dir radio.Direction, st *staticState) {
	profile, _ := bulkProfile(dir)
	a := c.newAdapter(id, ph, t, profile, dir, st)
	res := transport.RunBulkWith(&a.Bulk, pathAdapter{a}, c.Cfg.BulkSec)
	c.emitBulk(sink, &a.Lane, t, dir, st != nil, res)
	a.release()
}

// emitBulk streams a finished bulk transfer's records. The per-table
// emission order (throughput rows, handovers, summary) matches the order
// the pre-streaming merge appended them.
func (c *Campaign) emitBulk(sink dataset.Sink, ln *batch.Lane, t float64, dir radio.Direction, static bool, res transport.BulkResult) {
	_, kind := bulkProfile(dir)
	n := len(res.SamplesBps)
	if len(ln.Rows) < n {
		n = len(ln.Rows)
	}
	// Rows are km-ordered, so one route cursor serves the whole KPI join.
	cur := c.Route.Cursor()
	for i := 0; i < n; i++ {
		r := ln.Rows[i]
		cc := r.CCDL
		if dir == radio.Uplink {
			cc = r.CCUL
		}
		sink.EmitThr(dataset.ThroughputSample{
			TestID: ln.TestID, Op: ln.Op, Dir: dir, TimeUTC: utc(r.T), Bps: res.SamplesBps[i],
			Tech: r.Tech, RSRPdBm: r.RSRP, SINRdB: r.SINR, MCS: r.MCS, BLER: r.BLER, CC: cc,
			MPH: r.MPH, Km: r.Km, Zone: cur.TimezoneAt(r.Km), Road: cur.RoadClassAt(r.Km),
			Server: ln.Server.Kind, Static: static, HOs: r.HOs,
		})
	}
	dataset.EmitHandoverAll(sink, ln.HORecs)

	if c.Cfg.RawLogDir != "" {
		if err := c.exportRaw(ln, string(kind), t, res.SamplesBps, n); err != nil {
			panic(fmt.Sprintf("campaign: raw log export: %v", err))
		}
	}

	sum := dataset.TestSummary{
		ID: ln.TestID, Op: ln.Op, Kind: kind, Dir: dir, StartUTC: utc(t), DurSec: c.Cfg.BulkSec,
		Zone: ln.LastS.Zone, Server: ln.Server.Kind, Static: static,
		MeanBps: res.MeanBps(), StdFracBps: res.StdFrac(),
		HighSpeedFrac: ln.HighSpeedFrac(), HOCount: ln.HOCount(),
	}
	if !static {
		sum.Miles = c.Trace.MilesBetween(t, t+c.Cfg.BulkSec)
	}
	if dir == radio.Downlink {
		sum.RxBytes = res.DeliveredBytes
	} else {
		sum.TxBytes = res.DeliveredBytes
	}
	sink.EmitTest(sum)
}

// rttIntervalSec is the ping cadence of the RTT test (one echo per 200 ms,
// §5). RTT phases tick at this interval.
const rttIntervalSec = 0.2

// runRTT runs one ping test and records each sample.
// A non-nil st makes it a static test.
func (c *Campaign) runRTT(sink dataset.Sink, id int, ph *phone, t float64, st *staticState) {
	a := c.newAdapter(id, ph, t, ran.RTTProbe, radio.Downlink, st)
	nextPing := 0.0
	for tt := 0.0; tt < c.Cfg.RTTSec; tt += rttIntervalSec {
		_, _, rtt, outage := a.advance(rttIntervalSec)
		if tt >= nextPing {
			nextPing += rttIntervalSec
			if outage {
				continue
			}
			a.Pings = append(a.Pings, batch.Ping{
				T: a.T, Ms: rtt, Tech: a.Last.Tech,
				MPH: a.LastS.MPH, Km: a.LastS.Km, Zone: a.LastS.Zone,
			})
		}
	}
	c.emitRTT(sink, &a.Lane, t, st != nil)
	a.release()
}

// emitRTT streams a finished ping test's records. Ping rows land in the rtt
// table in probe order.
func (c *Campaign) emitRTT(sink dataset.Sink, ln *batch.Lane, t float64, static bool) {
	for _, p := range ln.Pings {
		sink.EmitRTT(dataset.RTTSample{
			TestID: ln.TestID, Op: ln.Op, TimeUTC: utc(p.T), Ms: p.Ms, Tech: p.Tech,
			MPH: p.MPH, Km: p.Km, Zone: p.Zone, Server: ln.Server.Kind,
			Static: static,
		})
	}
	dataset.EmitHandoverAll(sink, ln.HORecs)

	mean, stdFrac := meanStdFracPings(ln.Pings)
	sum := dataset.TestSummary{
		ID: ln.TestID, Op: ln.Op, Kind: dataset.TestRTT, Dir: radio.Downlink, StartUTC: utc(t),
		DurSec: c.Cfg.RTTSec, Zone: ln.LastS.Zone, Server: ln.Server.Kind, Static: static,
		MeanRTTms: mean, StdFracRTT: stdFrac,
		HighSpeedFrac: ln.HighSpeedFrac(), HOCount: ln.HOCount(),
	}
	if !static {
		sum.Miles = c.Trace.MilesBetween(t, t+c.Cfg.RTTSec)
	}
	sink.EmitTest(sum)
}

func meanStdFrac(v []float64) (mean, stdFrac float64) {
	if len(v) == 0 {
		return 0, 0
	}
	for _, x := range v {
		mean += x
	}
	mean /= float64(len(v))
	if mean == 0 {
		return 0, 0
	}
	var ss float64
	for _, x := range v {
		d := x - mean
		ss += d * d
	}
	return mean, math.Sqrt(ss/float64(len(v))) / mean
}

// meanStdFracPings is meanStdFrac over the RTT values of a ping series,
// accumulated in the same order with the same arithmetic.
func meanStdFracPings(pings []batch.Ping) (mean, stdFrac float64) {
	if len(pings) == 0 {
		return 0, 0
	}
	for _, p := range pings {
		mean += p.Ms
	}
	mean /= float64(len(pings))
	if mean == 0 {
		return 0, 0
	}
	var ss float64
	for _, p := range pings {
		d := p.Ms - mean
		ss += d * d
	}
	return mean, math.Sqrt(ss/float64(len(pings))) / mean
}

// exportRaw writes the raw XCAL + app log file pair for a finished bulk
// test (Config.RawLogDir).
func (c *Campaign) exportRaw(ln *batch.Lane, kind string, t float64, samples []float64, n int) error {
	exp := &xcal.Exporter{Dir: c.Cfg.RawLogDir}
	var kpis []xcal.KPIEntry
	var app []xcal.AppEntry
	for i := 0; i < n; i++ {
		r := ln.Rows[i]
		kpis = append(kpis, xcal.KPIEntry{
			TimeUTC: utc(r.T), Tech: r.Tech, RSRPdBm: r.RSRP, SINRdB: r.SINR,
			MCS: r.MCS, BLER: r.BLER, CCDown: r.CCDL, CCUp: r.CCUL, MPH: r.MPH,
		})
		app = append(app, xcal.AppEntry{TimeUTC: utc(r.T), Value: samples[i]})
	}
	var sigs []xcal.SignalEvent
	for _, h := range ln.HORecs {
		sigs = append(sigs, xcal.SignalEvent{
			TimeUTC: h.TimeUTC, FromTech: h.FromTech, ToTech: h.ToTech,
			FromCell: h.FromCell, ToCell: h.ToCell, DurMs: h.DurSec * 1000,
		})
	}
	// The test id disambiguates tests of the same kind within one second.
	tag := fmt.Sprintf("%s-%d", kind, ln.TestID)
	offset := ln.LastS.Zone.UTCOffsetHours()
	return exp.ExportTest(ln.Op, tag, utc(t), offset, kpis, sigs, app)
}

// speedTestSec is the duration of the commercial-style speed test.
const speedTestSec = 15.0

// runSpeedTest runs the Table 3 extension: an 8-connection peak-seeking
// downlink test to the nearest server, on the same radio state the nuttcp
// tests use. The reported "peak" lands in MeanBps of a TestSpeed summary.
func (c *Campaign) runSpeedTest(sink dataset.Sink, id int, ph *phone, t float64) {
	a := c.newAdapter(id, ph, t, ran.BacklogDL, radio.Downlink, nil)
	res := transport.RunSpeedTest(pathAdapter{a}, speedTestSec, transport.SpeedTestConns)
	dataset.EmitHandoverAll(sink, a.HORecs)
	sink.EmitTest(dataset.TestSummary{
		ID: a.TestID, Op: ph.op, Kind: dataset.TestSpeed, Dir: radio.Downlink, StartUTC: utc(t),
		DurSec: speedTestSec, Zone: a.LastS.Zone, Server: a.Server.Kind,
		MeanBps:       res.PeakBps,
		HighSpeedFrac: a.HighSpeedFrac(), HOCount: a.HOCount(),
		Miles:   c.Trace.MilesBetween(t, t+speedTestSec),
		RxBytes: res.MeanBps / 8 * speedTestSec,
	})
	a.release()
}

// addAppPhases appends the tail of a round-robin cycle starting at t to j
// — the speed test, then the four killer apps (AR and CAV with and without
// compression) — and returns the next free time slot. Every start time is
// computed here, on the campaign goroutine, and bound into its phase.
func (c *Campaign) addAppPhases(j *job, t float64) float64 {
	cfg := c.Cfg
	if cfg.EnableSpeedTest {
		j.add(phaseSpeed, t, false)
		t += speedTestSec + cfg.GapSec
	}
	if !cfg.EnableApps {
		return t
	}
	for _, compressed := range []bool{false, true} {
		j.add(phaseAR, t, compressed)
		t += offload.ARConfig().DurSec + cfg.GapSec
		j.add(phaseCAV, t, compressed)
		t += offload.CAVConfig().DurSec + cfg.GapSec
	}
	j.add(phaseVideo, t, false)
	t += cfg.VideoSec + cfg.GapSec
	j.add(phaseGaming, t, false)
	t += cfg.GamingSec + cfg.GapSec
	return t
}

func (c *Campaign) runOffload(sink dataset.Sink, id int, ph *phone, t float64, appCfg offload.Config, kind dataset.TestKind, compressed bool) {
	a := c.newAdapter(id, ph, t, ran.AppUL, radio.Uplink, nil)
	res := offload.Run(netAdapter{a}, appCfg, compressed, true)
	dataset.EmitHandoverAll(sink, a.HORecs)
	sink.EmitApp(dataset.AppRun{
		ID: a.TestID, Op: ph.op, App: kind, StartUTC: utc(t), DurSec: appCfg.DurSec,
		Server: a.Server.Kind, Compressed: compressed,
		HighSpeedFrac: a.HighSpeedFrac(), HOCount: a.HOCount(),
		MedianE2EMs: res.MedianE2EMs, OffloadFPS: res.OffloadFPS, MAP: res.MAP,
	})
	a.release()
}

func (c *Campaign) runVideo(sink dataset.Sink, id int, ph *phone, t float64) {
	a := c.newAdapter(id, ph, t, ran.AppDL, radio.Downlink, nil)
	res := video.Run(netAdapter{a}, c.Cfg.VideoSec)
	dataset.EmitHandoverAll(sink, a.HORecs)
	sink.EmitApp(dataset.AppRun{
		ID: a.TestID, Op: ph.op, App: dataset.TestVideo, StartUTC: utc(t), DurSec: c.Cfg.VideoSec,
		Server: a.Server.Kind, HighSpeedFrac: a.HighSpeedFrac(), HOCount: a.HOCount(),
		QoE: res.QoE, RebufFrac: res.RebufFrac, AvgBitrate: res.AvgBitrate,
	})
	a.release()
}

func (c *Campaign) runGaming(sink dataset.Sink, id int, ph *phone, t float64) {
	a := c.newAdapter(id, ph, t, ran.AppDL, radio.Downlink, nil)
	res := gaming.Run(netAdapter{a}, c.Cfg.GamingSec)
	dataset.EmitHandoverAll(sink, a.HORecs)
	sink.EmitApp(dataset.AppRun{
		ID: a.TestID, Op: ph.op, App: dataset.TestGaming, StartUTC: utc(t), DurSec: c.Cfg.GamingSec,
		Server: a.Server.Kind, HighSpeedFrac: a.HighSpeedFrac(), HOCount: a.HOCount(),
		SendBitrate: res.SendBitrate, NetLatencyMs: res.NetLatencyMs, FrameDrop: res.FrameDrop,
	})
	a.release()
}

// queueStaticBattery queues the static city baseline (§5.1): the team
// searched each city for a 5G mmWave base station and measured facing it,
// falling back to mid-band where mmWave could not be found — which in
// practice meant mmWave for Verizon and AT&T and mid-band for T-Mobile
// (Fig. 3a). Each phone runs a DL, UL and ping test on its pinned link.
func (c *Campaign) queueStaticBattery(t float64, s geo.Sample, city geo.City) {
	j := c.lanes.next()
	j.static = make([]*staticState, len(c.phones))
	for i, ph := range c.phones {
		tech := radio.NRmmW
		if ph.op == radio.TMobile && !ph.dep.HasTech(s.Km, radio.NRmmW) {
			tech = radio.NRMid
		}
		j.static[i] = &staticState{
			link: radio.NewLink(c.rng.Stream("static", city.Name, ph.op.String(), tech.String()), ph.op, tech),
			tech: tech,
			km:   s.Km,
			pos:  city.Pos,
			zone: s.Zone,
		}
	}
	j.add(phaseBulkDL, t, false)
	j.add(phaseBulkUL, t+c.Cfg.BulkSec+2, false)
	j.add(phaseRTT, t+2*(c.Cfg.BulkSec+2), false)
	c.lanes.submit(j)
}

// runPassiveLoggers walks three dedicated idle UEs (one per carrier)
// through the entire trace, logging the serving technology every
// PassiveSampleSec — the handover-logger phones of §3. The three loggers
// are independent, so they run concurrently and merge in operator order.
func (c *Campaign) runPassiveLoggers() {
	end := c.endKm()
	perOp := make([][]dataset.PassiveSample, radio.NumOperators)
	var wg sync.WaitGroup
	for _, op := range radio.Operators() {
		wg.Add(1)
		go func(op radio.Operator) {
			defer wg.Done()
			perOp[op] = c.runPassiveLogger(op, end)
		}(op)
	}
	wg.Wait()
	for _, samples := range perOp {
		dataset.EmitPassiveAll(c.sink, samples)
	}
}

// runPassiveLogger walks one carrier's handover-logger along the trace up
// to route distance end.
func (c *Campaign) runPassiveLogger(op radio.Operator, end float64) []dataset.PassiveSample {
	var out []dataset.PassiveSample
	{
		dep := deployFor(c, op)
		ue := ran.NewUEWithConfig(c.rng.Stream("ho-logger"), dep, c.hoCfg[op])
		step := c.Cfg.PassiveSampleSec
		if step <= 0 {
			step = 2
		}
		// Cell-ID memo: a logger camps on the same cell for many consecutive
		// samples, so the string form is re-rendered only when the serving
		// cell actually changes. The init flag matters because the zero
		// CellKey names a real cell.
		var lastKey deploy.CellKey
		var lastID string
		haveID := false
		for i := 0; i < len(c.Trace.Samples); i += int(step) {
			s := c.Trace.Samples[i]
			if s.Km >= end {
				break
			}
			snap := ue.Step(s.T, step, s.Km, s.MPH, s.Road, s.Zone, ran.Idle)
			rec := dataset.PassiveSample{
				Op: op, TimeUTC: utc(s.T), Km: s.Km, Zone: s.Zone,
			}
			if snap.Outage {
				rec.NoSvc = true
				rec.Tech = radio.LTE
			} else {
				rec.Tech = snap.Tech
				if key := snap.Cell.Key(); !haveID || key != lastKey {
					lastKey, lastID, haveID = key, key.String(), true
				}
				rec.Cell = lastID
			}
			out = append(out, rec)
		}
	}
	return out
}

// deployFor returns the deployment already built for the operator's phone;
// the handover-logger rides in the same car and sees the same network.
func deployFor(c *Campaign, op radio.Operator) *deploy.Deployment {
	for _, ph := range c.phones {
		if ph.op == op {
			return ph.dep
		}
	}
	panic("campaign: unknown operator")
}
