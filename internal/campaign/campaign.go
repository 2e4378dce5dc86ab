// Package campaign orchestrates the full measurement campaign exactly as
// §3 describes it: three test phones (one per carrier) run bandwidth, RTT,
// and application tests in a round-robin loop while driving from LA to
// Boston; three more "handover-logger" phones passively log the serving
// technology with ping-only traffic for the whole trip; static baseline
// tests run in each major city. The output is the consolidated cross-layer
// dataset that package analysis turns into the paper's figures and tables.
package campaign

import (
	"wheels/internal/dataset"
	"wheels/internal/deploy"
	"wheels/internal/geo"
	"wheels/internal/radio"
	"wheels/internal/ran"
	"wheels/internal/servers"
	"wheels/internal/sim"
	"wheels/internal/transport"
)

// Config controls the scope of a campaign run.
type Config struct {
	Seed int64

	BulkSec   float64 // duration of one throughput test (§5: 30-35 s)
	RTTSec    float64 // duration of one ping test (§5: 20 s)
	VideoSec  float64 // one streaming session (§D.1: 180 s)
	GamingSec float64 // one gaming session
	GapSec    float64 // setup gap between consecutive tests

	EnableApps    bool // run the four killer apps
	EnablePassive bool // run the handover-logger phones
	EnableStatic  bool // run static city baselines
	// EnableSpeedTest adds a commercial-style 8-connection speed test to
	// each round-robin cycle, so Table 3's methodology gap (single remote
	// TCP connection vs parallel peak-seeking connections) can be measured
	// on identical radio conditions.
	EnableSpeedTest bool

	// KmLimit truncates the campaign to the first N km of the route
	// (0 = full trip). Used by tests and quick examples.
	KmLimit float64

	// PassiveSampleSec is the logging period of the handover-loggers.
	PassiveSampleSec float64

	// RawLogDir, when set, makes every bulk test also write its raw
	// measurement files (XCAL .drm + app log) there, exactly as the real
	// testbed did. xcal.Rebuild reconstructs the dataset from them.
	RawLogDir string

	// Progress, when non-nil, is called at the start of each trip day with
	// the day number and the route distance covered so far.
	Progress func(day int, km, totalKm float64)
}

// DefaultConfig returns the paper's full methodology.
func DefaultConfig(seed int64) Config {
	return Config{
		Seed:             seed,
		BulkSec:          30,
		RTTSec:           20,
		VideoSec:         180,
		GamingSec:        60,
		GapSec:           5,
		EnableApps:       true,
		EnablePassive:    true,
		EnableStatic:     true,
		EnableSpeedTest:  true,
		PassiveSampleSec: 2,
	}
}

// QuickConfig is a reduced campaign for tests and examples: network tests
// only, over the first kmLimit km.
func QuickConfig(seed int64, kmLimit float64) Config {
	cfg := DefaultConfig(seed)
	cfg.EnableApps = false
	cfg.EnablePassive = false
	cfg.EnableStatic = false
	cfg.EnableSpeedTest = false
	cfg.KmLimit = kmLimit
	return cfg
}

// phone is one carrier's test phone: persistent UE state, its latency
// model, and the XCAL attachment implied by recording KPI rows.
type phone struct {
	op  radio.Operator
	dep *deploy.Deployment
	ue  *ran.UE
	lat *transport.LatencyModel
}

// Campaign holds the full testbed for one seed's continuous drive: every
// phone's RRC and handover state carries across the whole route.
type Campaign struct {
	Cfg    Config
	Route  *geo.Route
	Trace  *geo.Trace
	Reg    *servers.Registry
	rng    *sim.RNG
	phones []*phone

	// hoCfg is the per-operator handover policy resolved from the testbed
	// (nil entries mean the default policy); the passive handover loggers
	// read it so every UE in the campaign runs the same policy.
	hoCfg [radio.NumOperators]*ran.HandoverConfig

	// sink receives every record as it is produced. Run wires a Collector
	// here; RunTo wires the caller's sink.
	sink   dataset.Sink
	nextID int

	// lanes runs the phones' tests for the duration of RunTo.
	lanes *lanes
}

// traceTrailSec is how much trace time a KmLimit-bounded campaign keeps
// past the sample where the limit is reached. The cycle loop stops at the
// first sample at or beyond the limit, and no test or logger looks further
// ahead than one round-robin cycle (~600 s with apps enabled); an hour of
// trail is an order of magnitude of slack. Truncating the rest drops the
// dominant allocation of short campaigns — the full 8-day 1 Hz trace.
const traceTrailSec = 3600

// newTrace simulates the drive, bounded to the campaign's KmLimit (plus
// trail) when one is set. The generator stops drawing once the limit is
// reached (geo.DriveLimited), which both sheds the dominant allocation of
// short runs and skips simulating the days past the limit entirely; every
// run over the same (seed, KmLimit) observes identical samples either way.
func newTrace(route *geo.Route, rng *sim.RNG, cfg Config) *geo.Trace {
	return geo.DriveLimited(route, rng.Stream("drive"), cfg.KmLimit, traceTrailSec)
}

// deployKmBound returns the route span deploy.NewUpTo must cover for a
// campaign over the given (already built) trace. Every availability query —
// UE steps, the static-battery site probe — takes its km from a trace
// sample, extrapolated forward by at most maxExtrapolateSec, so the trace's
// last sample plus a generous slack bounds them all; coverage past it is
// never read. Unbounded campaigns (no KmLimit) keep the full-route build.
func deployKmBound(trace *geo.Trace, cfg Config) float64 {
	if cfg.KmLimit <= 0 || len(trace.Samples) == 0 {
		return 0
	}
	return trace.Samples[len(trace.Samples)-1].Km + 1
}

// New builds the testbed: route, drive trace, three deployments, three test
// phones, and the server registry. Fleet callers running many seeds should
// build one Testbed and use NewWithTestbed so the seed-independent substrate
// is constructed once.
func New(cfg Config) *Campaign {
	return NewWithTestbed(cfg, NewTestbed())
}

// newTestID allocates a campaign-unique test id.
func (c *Campaign) newTestID() int {
	c.nextID++
	return c.nextID
}

// maxExtrapolateSec caps how far past a trace sample where may extrapolate
// the vehicle position. Samples are 1 s apart within a day, so anything
// beyond this cap is an inter-day (overnight) gap.
const maxExtrapolateSec = 2.0

// where interpolates the drive trace at simulation time t. Within a day the
// position extrapolates from the last sample at its recorded speed; inside
// an overnight gap it clamps to the next day's first sample (the parked car
// resumes from where it stopped) rather than silently returning a stale
// mid-drive sample. Past the end of the trace the final sample is returned.
func (c *Campaign) where(t float64) geo.Sample {
	return c.whereAt(c.Trace.At(t), t)
}

// whereCur is where over a trace cursor. Simulation time advances
// monotonically within the campaign loop and within each test, so the
// cursor turns the per-tick binary search into an O(1) index bump. Cursors
// are not goroutine-safe: the campaign loop and each adapter own their own.
func (c *Campaign) whereCur(cur *geo.TraceCursor, t float64) geo.Sample {
	return c.whereAt(cur.At(t), t)
}

func (c *Campaign) whereAt(idx int, t float64) geo.Sample {
	if idx < 0 {
		return c.Trace.Samples[0]
	}
	s := c.Trace.Samples[idx]
	dt := t - s.T
	switch {
	case dt > 0 && dt <= maxExtrapolateSec:
		s.Km += s.MPH * geo.KmPerMile / 3600 * dt
	case dt > maxExtrapolateSec && idx+1 < len(c.Trace.Samples):
		return c.Trace.Samples[idx+1]
	}
	return s
}

// endKm returns the route distance at which the campaign stops.
func (c *Campaign) endKm() float64 {
	end := c.Route.LengthKm()
	if c.Cfg.KmLimit > 0 && c.Cfg.KmLimit < end {
		end = c.Cfg.KmLimit
	}
	return end
}

// Run executes the campaign and returns the materialized dataset. It is
// RunTo into a Collector and exists for consumers that genuinely need the
// whole dataset at once (figures, what-if analyses); streaming consumers
// should use RunTo.
func (c *Campaign) Run() *dataset.Dataset {
	col := dataset.NewCollector(c.Cfg.Seed)
	c.RunTo(col)
	return col.Dataset()
}

// RunTo executes the campaign over the route (up to Cfg.KmLimit), emitting
// every record into sink as it is produced. Records of one table arrive in
// the same order Run appends them, so a Collector sink reproduces Run's
// dataset byte-for-byte. RunTo does not call sink.Flush — the sink's owner
// does, after all campaigns feeding it have finished.
//
// The campaign goroutine walks the schedule and queues its tests; each
// phone runs them on a lane goroutine of its own (see lanes). Every lane
// has exited by the time RunTo returns.
func (c *Campaign) RunTo(sink dataset.Sink) {
	c.sink = sink
	if c.Cfg.EnablePassive {
		c.runPassiveLoggers()
	}
	c.lanes = c.startLanes()
	defer func() {
		c.lanes.stop()
		c.lanes = nil
	}()
	end := c.endKm()
	visited := map[string]bool{}

	t := c.Trace.Samples[0].T
	// The loop owns its trace and route cursors: t and s.Km only move
	// forward here, so every lookup after the first is O(1).
	cur := c.Trace.Cursor()
	routeCur := c.Route.Cursor()
	day := 0
	for {
		s := c.whereCur(cur, t)
		if s.Km >= end || t > c.Trace.Samples[len(c.Trace.Samples)-1].T {
			break
		}
		if s.Day != day {
			day = s.Day
			if c.Cfg.Progress != nil {
				c.Cfg.Progress(day, s.Km, c.Route.LengthKm())
			}
		}
		// Overnight gap: jump to the next sample's time.
		if idx := cur.At(t); idx >= 0 && t-c.Trace.Samples[idx].T > 2 {
			if idx+1 >= len(c.Trace.Samples) {
				break
			}
			t = c.Trace.Samples[idx+1].T
			continue
		}

		// Static baseline battery once per newly entered city.
		if c.Cfg.EnableStatic {
			if city, _, ok := routeCur.CityAreaAt(s.Km); ok && !visited[city.Name] {
				visited[city.Name] = true
				c.queueStaticBattery(t, s, city)
			}
		}

		// One round-robin cycle of driving tests, all three phones
		// starting each test at the same instant (concurrency across
		// carriers is what enables the Fig. 6 pairwise analysis).
		t = c.runCycle(t)
	}
	c.lanes.drain()
}

// runCycle queues one round-robin battery starting at t and returns the
// time at which the next cycle may begin.
func (c *Campaign) runCycle(t float64) float64 {
	cfg := c.Cfg
	j := c.lanes.next()
	j.add(phaseBulkDL, t, false)
	t += cfg.BulkSec + cfg.GapSec
	j.add(phaseBulkUL, t, false)
	t += cfg.BulkSec + cfg.GapSec
	j.add(phaseRTT, t, false)
	t += cfg.RTTSec + cfg.GapSec
	t = c.addAppPhases(j, t)
	c.lanes.submit(j)
	return t
}
