// Package disk models rotating storage devices at the level the paper's
// argument depends on: head position, seek time as a function of seek
// distance, rotational latency, and sustained media transfer rate. A disk
// keeps a blktrace-style access log (optional) and running seek-distance
// statistics, which DualPar's per-server locality daemon samples (SeekDist in
// the paper, §IV-B).
package disk

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"dualpar/internal/sim"
)

// Params describes a disk's geometry and timing. ZeroValue is invalid; use
// DefaultParams as a base.
type Params struct {
	SectorSize int   // bytes per sector (LBN unit)
	Sectors    int64 // device capacity in sectors

	SeekMin time.Duration // track-to-track seek
	SeekMax time.Duration // full-stroke seek
	RPM     int           // spindle speed

	// TransferRate is the sustained media rate in bytes/second once the
	// head is positioned.
	TransferRate float64

	// SeqWindow is the maximum forward gap, in sectors, that is still
	// served by streaming over the gap instead of seeking: the head reads
	// past unwanted sectors at media rate. Typical real-disk firmware
	// behaves this way for short forward skips.
	SeqWindow int64

	// CommandOverhead is the fixed per-request controller/command cost.
	CommandOverhead time.Duration

	// RandomRotation samples the rotational latency uniformly from
	// [0, one revolution) per access instead of charging the expected half
	// revolution. Real positioning variance is what desynchronizes
	// lockstepped clients; deterministic via Seed.
	RandomRotation bool
	// Seed drives the rotational-latency samples.
	Seed int64
}

// DefaultParams approximates one 7200-RPM SATA drive of the paper's era
// (HP MM0500FAMYT class).
func DefaultParams() Params {
	return Params{
		SectorSize:      512,
		Sectors:         1 << 30, // 512 GB
		SeekMin:         500 * time.Microsecond,
		SeekMax:         9 * time.Millisecond,
		RPM:             7200,
		TransferRate:    90e6,
		SeqWindow:       512, // 256 KB forward skip
		CommandOverhead: 100 * time.Microsecond,
		RandomRotation:  true,
		Seed:            1,
	}
}

// Validate reports whether the parameters are internally consistent.
func (p Params) Validate() error {
	switch {
	case p.SectorSize <= 0:
		return fmt.Errorf("disk: SectorSize %d", p.SectorSize)
	case p.Sectors <= 0:
		return fmt.Errorf("disk: Sectors %d", p.Sectors)
	case p.SeekMin < 0 || p.SeekMax < p.SeekMin:
		return fmt.Errorf("disk: seek range [%v,%v]", p.SeekMin, p.SeekMax)
	case p.RPM <= 0:
		return fmt.Errorf("disk: RPM %d", p.RPM)
	case p.TransferRate <= 0:
		return fmt.Errorf("disk: TransferRate %g", p.TransferRate)
	case p.SeqWindow < 0:
		return fmt.Errorf("disk: SeqWindow %d", p.SeqWindow)
	case p.CommandOverhead < 0:
		return fmt.Errorf("disk: CommandOverhead %v", p.CommandOverhead)
	}
	return nil
}

// Breakdown decomposes one access's service time into its cost-model
// components. Streamed forward skips (SeqWindow) count as Seek: the head is
// positioning over unwanted sectors, even though it moves at media rate.
// The components sum exactly to the charged service time.
type Breakdown struct {
	Overhead time.Duration // command/controller cost (plus degradation surcharge)
	Seek     time.Duration // head movement, including streamed skips
	Rotation time.Duration // rotational latency
	Transfer time.Duration // media transfer of the requested sectors
}

// Total is the sum of the components — the access's service time.
func (b Breakdown) Total() time.Duration {
	return b.Overhead + b.Seek + b.Rotation + b.Transfer
}

// BreakdownReporter is implemented by devices that can report the component
// breakdown of their most recent access. The dispatcher that owns the device
// reads it immediately after Access returns (devices are single-owner, so
// there is no race).
type BreakdownReporter interface {
	LastBreakdown() Breakdown
}

// A Device serves sector-addressed accesses, charging virtual time to the
// calling Proc.
type Device interface {
	// Access reads or writes sectors [lbn, lbn+sectors) and returns the
	// service time, which has already been charged to p.
	Access(p *sim.Proc, lbn, sectors int64, write bool) time.Duration
	// Sectors reports the device capacity.
	Sectors() int64
	// Stats returns cumulative counters.
	Stats() Stats
	// Trace returns the access log, or nil if tracing is disabled.
	Trace() *Trace
}

// Stats holds cumulative device counters. Sampling daemons take deltas
// between snapshots.
type Stats struct {
	Accesses      int64
	Seeks         int64 // accesses that required head repositioning
	SeekSectors   int64 // total absolute seek distance, in sectors
	BytesRead     int64
	BytesWritten  int64
	BusyTime      time.Duration
	SequentialRun int64 // accesses served without repositioning

	// Positioning vs. payload attribution: SeekTime accumulates the
	// Seek+Rotation breakdown components, TransferTime the media-transfer
	// component (command overhead is in BusyTime only). The engines
	// experiment reports these per storage engine.
	SeekTime     time.Duration
	TransferTime time.Duration
}

// AvgSeekDistance returns the mean seek distance in sectors over all
// accesses (zero-distance sequential accesses included), the statistic the
// paper's locality daemon reports.
func (s Stats) AvgSeekDistance() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.SeekSectors) / float64(s.Accesses)
}

// Sub returns s - t, for window deltas.
func (s Stats) Sub(t Stats) Stats {
	return Stats{
		Accesses:      s.Accesses - t.Accesses,
		Seeks:         s.Seeks - t.Seeks,
		SeekSectors:   s.SeekSectors - t.SeekSectors,
		BytesRead:     s.BytesRead - t.BytesRead,
		BytesWritten:  s.BytesWritten - t.BytesWritten,
		BusyTime:      s.BusyTime - t.BusyTime,
		SequentialRun: s.SequentialRun - t.SequentialRun,
		SeekTime:      s.SeekTime - t.SeekTime,
		TransferTime:  s.TransferTime - t.TransferTime,
	}
}

// Disk is a single rotating drive. It is not safe for concurrent access;
// exactly one dispatcher Proc must own it (the I/O scheduler's dispatch
// loop), which is how a real block device queue behaves.
type Disk struct {
	params Params
	head   int64 // LBN the head is positioned after
	stats  Stats
	trace  *Trace
	rng    *rand.Rand
	lastBD Breakdown
}

// New creates a disk. It panics if params are invalid (a configuration bug).
func New(params Params) *Disk {
	if err := params.Validate(); err != nil {
		panic(err)
	}
	return &Disk{params: params, head: 0, rng: rand.New(rand.NewSource(params.Seed))}
}

// EnableTrace turns on blktrace-style logging into a fresh Trace.
func (d *Disk) EnableTrace() *Trace {
	d.trace = &Trace{sectorSize: d.params.SectorSize}
	return d.trace
}

// Params returns the disk's parameters.
func (d *Disk) Params() Params { return d.params }

// Sectors implements Device.
func (d *Disk) Sectors() int64 { return d.params.Sectors }

// Stats implements Device.
func (d *Disk) Stats() Stats { return d.stats }

// Trace implements Device.
func (d *Disk) Trace() *Trace { return d.trace }

// ServiceTime computes the *expected* time to serve an access given the
// current head position (rotational latency at its mean, half a
// revolution). Access charges the sampled time when RandomRotation is on.
func (d *Disk) ServiceTime(lbn, sectors int64) time.Duration {
	return serviceBreakdown(d.params, d.head, lbn, sectors, halfRotation(d.params.RPM)).Total()
}

// LastBreakdown implements BreakdownReporter.
func (d *Disk) LastBreakdown() Breakdown { return d.lastBD }

// sampledBreakdown draws the rotational latency if RandomRotation is on.
func (d *Disk) sampledBreakdown(lbn, sectors int64) Breakdown {
	rot := halfRotation(d.params.RPM)
	if d.params.RandomRotation {
		rot = time.Duration(d.rng.Int63n(int64(2 * rot)))
	}
	return serviceBreakdown(d.params, d.head, lbn, sectors, rot)
}

// Access implements Device.
func (d *Disk) Access(p *sim.Proc, lbn, sectors int64, write bool) time.Duration {
	if lbn < 0 || sectors <= 0 || lbn+sectors > d.params.Sectors {
		panic(fmt.Sprintf("disk: access [%d,%d) outside device of %d sectors", lbn, lbn+sectors, d.params.Sectors))
	}
	d.lastBD = d.sampledBreakdown(lbn, sectors)
	t := d.lastBD.Total()
	dist := lbn - d.head
	if dist < 0 {
		dist = -dist
	}
	d.stats.Accesses++
	d.stats.SeekSectors += dist
	if dist == 0 {
		d.stats.SequentialRun++
	} else {
		d.stats.Seeks++
	}
	bytes := sectors * int64(d.params.SectorSize)
	if write {
		d.stats.BytesWritten += bytes
	} else {
		d.stats.BytesRead += bytes
	}
	d.stats.BusyTime += t
	d.stats.SeekTime += d.lastBD.Seek + d.lastBD.Rotation
	d.stats.TransferTime += d.lastBD.Transfer
	d.head = lbn + sectors
	if d.trace != nil {
		d.trace.add(Entry{At: p.Now(), LBN: lbn, Sectors: sectors, Write: write})
	}
	p.Sleep(t)
	return t
}

// serviceBreakdown decomposes one access from head into its components,
// with the given rotational latency for non-streamed moves. The total is
// identical to the historical overhead + positioning + transfer sum.
func serviceBreakdown(params Params, head, lbn, sectors int64, rot time.Duration) Breakdown {
	bd := Breakdown{
		Overhead: params.CommandOverhead,
		Transfer: transferTime(params, sectors),
	}
	dist := lbn - head
	switch {
	case dist == 0:
	case dist > 0 && dist <= params.SeqWindow:
		// Stream over the short forward gap at media rate.
		bd.Seek = time.Duration(float64(dist*int64(params.SectorSize)) / params.TransferRate * float64(time.Second))
	default:
		if dist < 0 {
			dist = -dist
		}
		frac := math.Sqrt(float64(dist) / float64(params.Sectors))
		bd.Seek = params.SeekMin + time.Duration(frac*float64(params.SeekMax-params.SeekMin))
		bd.Rotation = rot
	}
	return bd
}

// halfRotation is the expected rotational latency: half a revolution.
func halfRotation(rpm int) time.Duration {
	return time.Duration(float64(time.Minute) / float64(rpm) / 2)
}

// transferTime is the media transfer time for sectors sectors.
func transferTime(params Params, sectors int64) time.Duration {
	bytes := float64(sectors * int64(params.SectorSize))
	return time.Duration(bytes / params.TransferRate * float64(time.Second))
}
