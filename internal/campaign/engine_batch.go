package campaign

import (
	"wheels/internal/batch"
	"wheels/internal/geo"
	"wheels/internal/radio"
	"wheels/internal/ran"
)

// ensureBatchGroup lazily builds the lockstep lane group: one lane per
// phone in operator order, all fed from one shared trace cursor. The group
// persists across cycles so its lane buffers reach a steady working size.
func (c *Campaign) ensureBatchGroup() *batch.Group {
	if c.batchG == nil {
		g := &batch.Group{Lanes: make([]batch.Lane, len(c.phones))}
		for i, ph := range c.phones {
			g.Lanes[i].Bind(ph.op, ph.ue, ph.lat)
		}
		c.batchCur.Reset(c.Trace)
		g.Where = func(t float64) geo.Sample { return c.whereCur(&c.batchCur, t) }
		c.batchG = g
	}
	return c.batchG
}

// startBatchPhase prepares every lane for one test phase starting at t:
// test ids are allocated in operator order (exactly as the lanes allocate
// a cycle's ids when it is queued), the server is selected from the phase's
// starting position, and stale handover events from between tests are
// dropped, mirroring the scalar engine's newAdapter.
func (c *Campaign) startBatchPhase(g *batch.Group, t float64, profile ran.Traffic, dir radio.Direction) {
	s := g.Where(t)
	for i := range g.Lanes {
		ln := &g.Lanes[i]
		ln.UE.TakeHandovers() // drop events from between tests
		ln.StartPhase(c.newTestID(), t, profile, dir, c.Reg.Select(ln.Op, s.Pos, s.Zone))
	}
}

// runCycleBatch is runCycle on the batched engine: the driving bulk and RTT
// phases step all three phones in one lockstep pass per tick and emit
// straight into the campaign sink (lane buffers already hold a full phase,
// so no per-phone Collector replay is needed; per-table record order is
// identical to the scalar merge). The lockstep passes step the same phones
// the lanes do, so the lanes are drained first. The speed-test and app
// phases, which have their own per-connection tick loops, are queued on the
// lanes — both engines share those code paths outright.
func (c *Campaign) runCycleBatch(t float64) float64 {
	cfg := c.Cfg
	c.lanes.drain()
	g := c.ensureBatchGroup()

	for _, dir := range [...]radio.Direction{radio.Downlink, radio.Uplink} {
		profile, _ := bulkProfile(dir)
		phaseDo("control", func() { c.startBatchPhase(g, t, profile, dir) })
		phaseDo("kernel", func() { g.RunBulk(cfg.BulkSec) })
		phaseDo("emit", func() {
			for i := range g.Lanes {
				ln := &g.Lanes[i]
				c.emitBulk(c.sink, ln, t, dir, false, ln.Bulk.Finish())
			}
		})
		t += cfg.BulkSec + cfg.GapSec
	}

	phaseDo("control", func() { c.startBatchPhase(g, t, ran.RTTProbe, radio.Downlink) })
	phaseDo("kernel", func() { g.RunRTT(cfg.RTTSec, rttIntervalSec) })
	phaseDo("emit", func() {
		for i := range g.Lanes {
			c.emitRTT(c.sink, &g.Lanes[i], t, false)
		}
	})
	t += cfg.RTTSec + cfg.GapSec

	j := c.lanes.next()
	t = c.addAppPhases(j, t)
	c.lanes.submit(j)
	return t
}
