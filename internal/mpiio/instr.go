package mpiio

import (
	"time"

	"dualpar/internal/sim"
)

// RankStats is the per-rank instrumentation the paper gathers in the ADIO
// functions: cumulative I/O time, compute time (measured as the gap between
// consecutive I/O-related calls), and bytes moved.
type RankStats struct {
	IOTime      time.Duration
	ComputeTime time.Duration
	Bytes       int64
	Calls       int64

	lastReturn time.Duration
	everCalled bool
}

// IORatio is the fraction of a rank's elapsed (compute + I/O) time spent in
// I/O — the paper's I/O intensity metric.
func (rs RankStats) IORatio() float64 {
	total := rs.IOTime + rs.ComputeTime
	if total == 0 {
		return 0
	}
	return float64(rs.IOTime) / float64(total)
}

// Instr aggregates instrumentation for one program: per-rank stats.
type Instr struct {
	Ranks []RankStats
}

// NewInstr creates instrumentation for n ranks.
func NewInstr(n int) *Instr {
	return &Instr{Ranks: make([]RankStats, n)}
}

// begin marks the start of an I/O call: the time since the previous call's
// return is attributed to computation. Call finish on the returned handle at
// call completion with the transferred byte count. The handle is a plain
// value — beginning a call allocates nothing.
func (in *Instr) begin(p *sim.Proc, rank int) ioCall {
	start := p.Now()
	rs := &in.Ranks[rank]
	if rs.everCalled {
		rs.ComputeTime += start - rs.lastReturn
	}
	return ioCall{rs: rs, start: start}
}

// ioCall is the in-flight handle returned by begin.
type ioCall struct {
	rs    *RankStats
	start time.Duration
}

// finish closes the call: [start, now) is I/O time.
func (c ioCall) finish(p *sim.Proc, bytes int64) {
	now := p.Now()
	c.rs.IOTime += now - c.start
	c.rs.Bytes += bytes
	c.rs.Calls++
	c.rs.lastReturn = now
	c.rs.everCalled = true
}

// Span accounts one I/O call that happened outside the normal begin/end
// path (DualPar's cache-served calls and suspensions): the gap since the
// previous call's return is compute, [start, end) is I/O.
func (in *Instr) Span(rank int, start, end time.Duration, bytes int64) {
	rs := &in.Ranks[rank]
	if rs.everCalled {
		rs.ComputeTime += start - rs.lastReturn
	}
	rs.IOTime += end - start
	rs.Bytes += bytes
	rs.Calls++
	rs.lastReturn = end
	rs.everCalled = true
}

// IORatio returns the mean I/O ratio across ranks.
func (in *Instr) IORatio() float64 {
	if len(in.Ranks) == 0 {
		return 0
	}
	var sum float64
	for i := range in.Ranks {
		sum += in.Ranks[i].IORatio()
	}
	return sum / float64(len(in.Ranks))
}

// TotalBytes returns the bytes moved by all ranks.
func (in *Instr) TotalBytes() int64 {
	var t int64
	for i := range in.Ranks {
		t += in.Ranks[i].Bytes
	}
	return t
}
