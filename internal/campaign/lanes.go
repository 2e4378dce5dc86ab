package campaign

import (
	"sync"

	"wheels/internal/apps/offload"
	"wheels/internal/dataset"
	"wheels/internal/radio"
)

// laneWindow is how many queued jobs may be in flight at once. With two, a
// phone that finishes its column of one job starts on the next while a
// slower phone is still busy, so the cores stay fed across job boundaries;
// the campaign goroutine replays the older job before it queues a third.
// Each in-flight job buffers a full cycle of records per phone, so the
// window is what bounds the lanes' memory: a window of 16 was measured at
// +36% quick-fleet peak RSS for no further speedup.
const laneWindow = 2

// phaseKind names the test a phone runs in one phase of a job.
type phaseKind uint8

const (
	phaseBulkDL phaseKind = iota
	phaseBulkUL
	phaseRTT
	phaseSpeed
	phaseAR
	phaseCAV
	phaseVideo
	phaseGaming
)

// phase is one test of a job. Its start time is bound by value when the
// job is queued; the campaign goroutine's clock has moved on by the time a
// phone runs it.
type phase struct {
	kind       phaseKind
	t          float64
	compressed bool // AR/CAV payload compression
}

// job is one queued unit of the test schedule: a round-robin cycle, whose
// phases every phone runs starting at the same instants, or one city's
// static battery, whose phases run on each phone's pinned static link. Its
// records collect per (phase, phone) and replay into the campaign sink in
// the order the tests would have emitted had they run one after another.
type job struct {
	phases []phase
	static []*staticState // per phone for a static battery, nil for a cycle

	// ids and sinks are indexed phase*len(phones)+phone. The slices keep
	// their backing arrays across the reuse of a window slot, so the lanes
	// stop allocating once a slot has held the largest job.
	ids   []int
	sinks []dataset.Collector

	done sync.WaitGroup // one count per phone
}

// add appends a phase to the job.
func (j *job) add(kind phaseKind, t float64, compressed bool) {
	j.phases = append(j.phases, phase{kind: kind, t: t, compressed: compressed})
}

// lanes runs each phone's share of the queued jobs on a goroutine of its
// own. The schedule — cycle start times, static batteries, test ids —
// depends only on the trace and the config, never on a phone's results, so
// the campaign goroutine walks it ahead of the phones and only waits when
// laneWindow jobs are already in flight.
type lanes struct {
	c    *Campaign
	in   []chan *job // one per phone
	wg   sync.WaitGroup
	ring [laneWindow]job
	head int // ring index of the oldest in-flight job
	n    int // jobs in flight
}

// startLanes starts one goroutine per phone. The caller must drain and then
// stop the lanes before the campaign's RunTo returns.
func (c *Campaign) startLanes() *lanes {
	l := &lanes{c: c, in: make([]chan *job, len(c.phones))}
	for i := range c.phones {
		// Sized to the window: at most laneWindow jobs are in flight, so
		// submit never blocks on a phone still busy with an older job.
		l.in[i] = make(chan *job, laneWindow)
		l.wg.Add(1)
		go l.run(i)
	}
	return l
}

// run is phone i's lane: it runs its column of each job back to back, each
// phase into that (phase, phone) collector. A phone's tests run in exactly
// the order the schedule queued them, so its UE, latency model and RNG
// streams advance as they would in a sequential run.
func (l *lanes) run(i int) {
	defer l.wg.Done()
	c, ph, n := l.c, l.c.phones[i], len(l.c.phones)
	for j := range l.in[i] {
		var st *staticState
		if j.static != nil {
			st = j.static[i]
		}
		for p, ps := range j.phases {
			k := p*n + i
			c.runPhase(&j.sinks[k], j.ids[k], ph, ps, st)
		}
		j.done.Done()
	}
}

// next returns an empty job in a free window slot, first replaying the
// oldest in-flight job if the window is full.
func (l *lanes) next() *job {
	if l.n == laneWindow {
		l.finish()
	}
	j := &l.ring[(l.head+l.n)%laneWindow]
	j.phases, j.static = j.phases[:0], nil
	return j
}

// submit allocates the job's test ids and hands it to every phone. Ids are
// allocated here, on the campaign goroutine, in the order the tests used to
// start: phase-major across operators for a cycle, phone-major for a static
// battery (each phone runs its whole battery before the next phone's).
func (l *lanes) submit(j *job) {
	n := len(l.c.phones)
	size := len(j.phases) * n
	if size == 0 {
		return
	}
	if len(j.sinks) < size {
		j.sinks = append(j.sinks, make([]dataset.Collector, size-len(j.sinks))...)
	}
	if cap(j.ids) < size {
		j.ids = make([]int, size)
	}
	j.ids = j.ids[:size]
	for k := range j.ids {
		j.sinks[k].Reset()
	}
	j.forEach(n, func(k int) { j.ids[k] = l.c.newTestID() })
	j.done.Add(n)
	for _, ch := range l.in {
		ch <- j
	}
	l.n++
}

// forEach visits the job's (phase, phone) cells in schedule order.
func (j *job) forEach(n int, f func(k int)) {
	if j.static != nil {
		for i := 0; i < n; i++ {
			for p := range j.phases {
				f(p*n + i)
			}
		}
		return
	}
	for k := 0; k < len(j.phases)*n; k++ {
		f(k)
	}
}

// finish waits for the oldest in-flight job and replays its records into
// the campaign sink in schedule order, so every table receives the same
// rows in the same order as a sequential run.
func (l *lanes) finish() {
	j := &l.ring[l.head]
	j.done.Wait()
	j.forEach(len(l.c.phones), func(k int) { j.sinks[k].D.EmitTo(l.c.sink) })
	l.head = (l.head + 1) % laneWindow
	l.n--
}

// drain replays every in-flight job. RunTo drains once the schedule is
// exhausted, before it stops the lanes.
func (l *lanes) drain() {
	for l.n > 0 {
		l.finish()
	}
}

// stop closes the phones' queues and waits for their goroutines to exit.
func (l *lanes) stop() {
	for _, ch := range l.in {
		close(ch)
	}
	l.wg.Wait()
}

// runPhase runs one phase's test on one phone into sink.
func (c *Campaign) runPhase(sink dataset.Sink, id int, ph *phone, p phase, st *staticState) {
	switch p.kind {
	case phaseBulkDL:
		c.runBulk(sink, id, ph, p.t, radio.Downlink, st)
	case phaseBulkUL:
		c.runBulk(sink, id, ph, p.t, radio.Uplink, st)
	case phaseRTT:
		c.runRTT(sink, id, ph, p.t, st)
	case phaseSpeed:
		c.runSpeedTest(sink, id, ph, p.t)
	case phaseAR:
		c.runOffload(sink, id, ph, p.t, offload.ARConfig(), dataset.TestAR, p.compressed)
	case phaseCAV:
		c.runOffload(sink, id, ph, p.t, offload.CAVConfig(), dataset.TestCAV, p.compressed)
	case phaseVideo:
		c.runVideo(sink, id, ph, p.t)
	case phaseGaming:
		c.runGaming(sink, id, ph, p.t)
	default:
		panic("campaign: unknown phase kind")
	}
}
