package main

import (
	"wheels/internal/analysis"
	"wheels/internal/dataset"
)

// timedSink times every call into the sink it wraps, folding them into one
// aggregate span. It forwards each call unchanged — batch calls stay batch
// calls through dataset's EmitXxxAll helpers — so the wrapped sink sees
// exactly the record stream it would see bare and writes the same bytes.
type timedSink struct {
	inner dataset.Sink
	agg   *Agg
}

// timed wraps inner under agg; with no tracer (agg nil) it returns inner
// itself, so untraced runs pay nothing.
func timed(inner dataset.Sink, agg *Agg) dataset.Sink {
	if agg == nil {
		return inner
	}
	return &timedSink{inner: inner, agg: agg}
}

func (s *timedSink) EmitThr(r dataset.ThroughputSample) {
	t0 := s.agg.Start()
	s.inner.EmitThr(r)
	s.agg.Stop(t0)
}
func (s *timedSink) EmitRTT(r dataset.RTTSample) {
	t0 := s.agg.Start()
	s.inner.EmitRTT(r)
	s.agg.Stop(t0)
}
func (s *timedSink) EmitHandover(r dataset.HandoverRecord) {
	t0 := s.agg.Start()
	s.inner.EmitHandover(r)
	s.agg.Stop(t0)
}
func (s *timedSink) EmitTest(r dataset.TestSummary) {
	t0 := s.agg.Start()
	s.inner.EmitTest(r)
	s.agg.Stop(t0)
}
func (s *timedSink) EmitApp(r dataset.AppRun) {
	t0 := s.agg.Start()
	s.inner.EmitApp(r)
	s.agg.Stop(t0)
}
func (s *timedSink) EmitPassive(r dataset.PassiveSample) {
	t0 := s.agg.Start()
	s.inner.EmitPassive(r)
	s.agg.Stop(t0)
}
func (s *timedSink) EmitThrAll(rs []dataset.ThroughputSample) {
	t0 := s.agg.Start()
	dataset.EmitThrAll(s.inner, rs)
	s.agg.Stop(t0)
}
func (s *timedSink) EmitRTTAll(rs []dataset.RTTSample) {
	t0 := s.agg.Start()
	dataset.EmitRTTAll(s.inner, rs)
	s.agg.Stop(t0)
}
func (s *timedSink) EmitHandoverAll(rs []dataset.HandoverRecord) {
	t0 := s.agg.Start()
	dataset.EmitHandoverAll(s.inner, rs)
	s.agg.Stop(t0)
}
func (s *timedSink) EmitTestAll(rs []dataset.TestSummary) {
	t0 := s.agg.Start()
	dataset.EmitTestAll(s.inner, rs)
	s.agg.Stop(t0)
}
func (s *timedSink) EmitAppAll(rs []dataset.AppRun) {
	t0 := s.agg.Start()
	dataset.EmitAppAll(s.inner, rs)
	s.agg.Stop(t0)
}
func (s *timedSink) EmitPassiveAll(rs []dataset.PassiveSample) {
	t0 := s.agg.Start()
	dataset.EmitPassiveAll(s.inner, rs)
	s.agg.Stop(t0)
}
func (s *timedSink) Flush() error {
	t0 := s.agg.Start()
	err := s.inner.Flush()
	s.agg.Stop(t0)
	return err
}

// countSink counts the records crossing a sink boundary and drops them. It
// is the traced runs' row counter and the fleet's no-op per-seed sink.
type countSink struct {
	n     analysis.Counts
	flush func() // called on Flush, when set
}

func (s *countSink) EmitThr(dataset.ThroughputSample)    { s.n.Thr++ }
func (s *countSink) EmitRTT(dataset.RTTSample)           { s.n.RTT++ }
func (s *countSink) EmitHandover(dataset.HandoverRecord) { s.n.Handovers++ }
func (s *countSink) EmitTest(dataset.TestSummary)        { s.n.Tests++ }
func (s *countSink) EmitApp(dataset.AppRun)              { s.n.Apps++ }
func (s *countSink) EmitPassive(dataset.PassiveSample)   { s.n.Passive++ }

func (s *countSink) EmitThrAll(rs []dataset.ThroughputSample) { s.n.Thr += len(rs) }
func (s *countSink) EmitRTTAll(rs []dataset.RTTSample)        { s.n.RTT += len(rs) }
func (s *countSink) EmitHandoverAll(rs []dataset.HandoverRecord) {
	s.n.Handovers += len(rs)
}
func (s *countSink) EmitTestAll(rs []dataset.TestSummary)      { s.n.Tests += len(rs) }
func (s *countSink) EmitAppAll(rs []dataset.AppRun)            { s.n.Apps += len(rs) }
func (s *countSink) EmitPassiveAll(rs []dataset.PassiveSample) { s.n.Passive += len(rs) }

func (s *countSink) Flush() error {
	if s.flush != nil {
		s.flush()
	}
	return nil
}

func addCounts(a, b analysis.Counts) analysis.Counts {
	return analysis.Counts{
		Thr: a.Thr + b.Thr, RTT: a.RTT + b.RTT, Tests: a.Tests + b.Tests,
		Handovers: a.Handovers + b.Handovers, Apps: a.Apps + b.Apps, Passive: a.Passive + b.Passive,
	}
}
