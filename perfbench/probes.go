package main

import (
	"time"

	"wheels/internal/apps/gaming"
	"wheels/internal/apps/offload"
	"wheels/internal/apps/video"
	"wheels/internal/campaign"
	"wheels/internal/dataset"
	"wheels/internal/deploy"
	"wheels/internal/geo"
	"wheels/internal/radio"
	"wheels/internal/ran"
	"wheels/internal/replay"
	"wheels/internal/sim"
	"wheels/internal/transport"
)

// Probe sizes: enough calls that each probe runs for tens of milliseconds
// or more, few enough that all probes together stay within seconds on the
// full trip.
const (
	probeSamples   = 20000 // trace samples the CellAt and link probes walk
	probeBulkTests = 12    // 30 s bulk transfers per operator
	probeAppRuns   = 24    // replayed sessions per app
	traceTrailSec  = 3600  // campaign.traceTrailSec: trace kept past KmLimit
	passiveStepSec = 2     // campaign.DefaultConfig's PassiveSampleSec
	bulkTestSec    = 30    // campaign.DefaultConfig's BulkSec
)

// probeSink keeps probe results live so the compiler cannot drop the calls.
var probeSink float64

// runProbes times the layers below the campaign directly through their
// exported functions, on the workload's seed and route length (km 0 = the
// full trip). ds supplies the tests table and the recorded throughput the
// app probes replay. The calls rebuild the campaign's own RNG streams, so
// the probes walk the same trace and deployments the workload simulated.
func runProbes(e *env, tr *Tracer, vals map[string]float64, tb *campaign.Testbed, km float64, ds *dataset.Dataset) {
	root := tr.Begin("probes", 0)
	defer tr.End(root)
	rng := sim.NewRNG(e.seed)
	span := func(name string, f func()) float64 {
		id := tr.Begin(name, root)
		t0 := time.Now()
		f()
		d := time.Since(t0).Seconds()
		tr.End(id)
		return d
	}

	var trace *geo.Trace
	vals["geo.drive_s"] = span("geo.drive", func() {
		trace = geo.DriveLimited(tb.Route, rng.Stream("drive"), km, traceTrailSec)
	})
	depKm := 0.0
	if km > 0 {
		depKm = trace.Samples[len(trace.Samples)-1].Km + 1
	}
	deps := make([]*deploy.Deployment, radio.NumOperators)
	vals["deploy.build_s"] = span("deploy.build", func() {
		for _, op := range radio.Operators() {
			deps[op] = deploy.NewUpToDensity(tb.Route, op, rng.Stream("deploy"), depKm, deploy.DefaultDensity())
		}
	})
	e.chk.check(len(trace.Samples) > 0, "probe trace for seed %d is empty", e.seed)

	// The pooled-adapter pattern: every test re-aims a reset cursor at its
	// start time.
	var starts []float64
	for _, t := range ds.Tests {
		starts = append(starts, t.StartUTC.Sub(sim.TripStart).Seconds())
	}
	for _, a := range ds.Apps {
		starts = append(starts, a.StartUTC.Sub(sim.TripStart).Seconds())
	}
	vals["geo.cursor_restart_s"] = span("geo.cursor_restart", func() {
		var cur geo.TraceCursor
		sum := 0
		for _, t := range starts {
			cur.Reset(trace)
			sum += cur.At(t)
		}
		probeSink += float64(sum)
	})

	samples := trace.Samples
	if len(samples) > probeSamples {
		samples = samples[:probeSamples]
	}
	techs := radio.Techs()
	calls := 0
	d := span("deploy.cellat", func() {
		for _, s := range samples {
			for _, dep := range deps {
				for _, t := range techs {
					_, dist := dep.CellAt(s.Km, t)
					probeSink += dist
					calls++
				}
			}
		}
	})
	vals["deploy.cellat_ns"] = d * 1e9 / float64(calls)

	links := make([]*radio.Link, 0, len(deps)*len(techs))
	for _, op := range radio.Operators() {
		for _, t := range techs {
			links = append(links, radio.NewLink(rng.Stream("probe-link", op.String(), t.String()), op, t))
		}
	}
	calls = 0
	d = span("radio.link_step", func() {
		var st radio.LinkState
		for _, s := range samples {
			for i, l := range links {
				_, dist := deps[i/len(techs)].CellAt(s.Km, techs[i%len(techs)])
				l.StepInto(&st, transport.TickSec, dist, s.MPH, s.Road)
				probeSink += st.CapDL
				calls++
			}
		}
	})
	vals["radio.link_step_ns"] = d * 1e9 / float64(calls)

	// The handover loggers' calls: one idle UE per operator stepped every
	// 2 s along the trace up to the workload's end.
	end := tb.Route.LengthKm()
	if km > 0 && km < end {
		end = km
	}
	hos := 0
	vals["ran.passive_walk_s"] = span("ran.passive_walk", func() {
		for _, op := range radio.Operators() {
			ue := ran.NewUEWithConfig(rng.Stream("ho-logger"), deps[op], ran.DefaultPolicy(op))
			for i := 0; i < len(trace.Samples); i += passiveStepSec {
				s := trace.Samples[i]
				if s.Km >= end {
					break
				}
				snap := ue.Step(s.T, passiveStepSec, s.Km, s.MPH, s.Road, s.Zone, ran.Idle)
				probeSink += snap.CapDL
				hos += len(ue.TakeHandovers())
			}
		}
	})
	vals["ran.handovers"] = float64(hos)

	var bulkMs []float64
	span("transport.bulk", func() {
		for _, op := range radio.Operators() {
			for k := 0; k < probeBulkTests; k++ {
				start := k * len(trace.Samples) / probeBulkTests
				p := &linkPath{
					link:    radio.NewLink(rng.Stream("probe-bulk", op.String()), op, radio.LTEA),
					dep:     deps[op],
					samples: trace.Samples[start:],
				}
				t0 := time.Now()
				res := transport.RunBulk(p, bulkTestSec)
				bulkMs = append(bulkMs, time.Since(t0).Seconds()*1e3)
				probeSink += res.DeliveredBytes
			}
		}
	})
	vals["transport.bulk_test_ms"] = median(bulkMs)

	ul := replay.Extract(ds, radio.Uplink)
	dl := replay.Extract(ds, radio.Downlink)
	e.chk.check(len(ul) > 0 && len(dl) > 0, "seed %d: dataset has no driving bulk tests to replay", e.seed)
	vals["apps.offload_s"] = span("apps.offload", func() {
		for i := 0; i < probeAppRuns && len(ul) > 0; i++ {
			probeSink += offload.Run(ul[i%len(ul)].Net(), offload.ARConfig(), i%2 == 1, true).MedianE2EMs
		}
	})
	vals["apps.video_s"] = span("apps.video", func() {
		for i := 0; i < probeAppRuns && len(dl) > 0; i++ {
			probeSink += video.Run(dl[i%len(dl)].Net(), 180).QoE
		}
	})
	vals["apps.gaming_s"] = span("apps.gaming", func() {
		for i := 0; i < probeAppRuns && len(dl) > 0; i++ {
			probeSink += gaming.Run(dl[i%len(dl)].Net(), 60).SendBitrate
		}
	})
}

// linkPath is a transport.Path over one radio.Link driven along a stretch
// of the drive trace: each tick moves the vehicle, finds the serving cell's
// distance and steps the link. Base RTT is a fixed 40 ms; the probe times
// the transport loop over a realistic capacity series, not the latency
// model.
type linkPath struct {
	link    *radio.Link
	dep     *deploy.Deployment
	samples []geo.Sample
	st      radio.LinkState
	t       float64
}

func (p *linkPath) Step(dt float64) transport.PathState {
	p.t += dt
	i := int(p.t)
	if i >= len(p.samples) {
		i = len(p.samples) - 1
	}
	s := p.samples[i]
	_, dist := p.dep.CellAt(s.Km, p.link.Tech)
	p.link.StepInto(&p.st, dt, dist, s.MPH, s.Road)
	return transport.PathState{CapBps: p.st.CapDL, BaseRTTms: 40, Outage: p.st.CapDL <= 0}
}
