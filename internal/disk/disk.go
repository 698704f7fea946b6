// Package disk models rotating storage devices at the level the paper's
// argument depends on: head position, seek time as a function of seek
// distance, rotational latency, and sustained media transfer rate. Every
// Access returns its time Breakdown, and every device keeps running
// seek-distance statistics, which DualPar's per-server locality daemon
// samples (SeekDist in the paper, §IV-B). The blktrace-style access log
// (Trace) is kept by the block layer that dispatches to the device
// (iosched.Dispatcher), not by the device.
package disk

import (
	"fmt"
	"math"
	"time"

	"dualpar/internal/sim"
)

// SectorSize is the LBN unit in bytes, of every device.
const SectorSize = 512

// DefaultSectors is the drive capacity in sectors (512 GB).
const DefaultSectors = 1 << 30

// Breakdown decomposes one access's service time into its cost-model
// components. Streamed forward skips (seqWindow) count as Seek: the head is
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

// A Device serves sector-addressed accesses, charging virtual time to the
// calling Proc.
type Device interface {
	// Access reads or writes sectors [lbn, lbn+sectors) and returns the
	// access's breakdown, whose Total is the service time already charged
	// to p.
	Access(p *sim.Proc, lbn, sectors int64, write bool) Breakdown
	// Sectors reports the device capacity.
	Sectors() int64
	// Stats returns cumulative counters.
	Stats() Stats
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

// record accounts one access of sectors at lbn served from head, charged
// bd: every device model keeps its counters through this one path.
func (s *Stats) record(head, lbn, sectors int64, write bool, bd Breakdown) {
	dist := lbn - head
	if dist < 0 {
		dist = -dist
	}
	s.Accesses++
	s.SeekSectors += dist
	if dist == 0 {
		s.SequentialRun++
	} else {
		s.Seeks++
	}
	bytes := sectors * SectorSize
	if write {
		s.BytesWritten += bytes
	} else {
		s.BytesRead += bytes
	}
	s.BusyTime += bd.Total()
	s.SeekTime += bd.Seek + bd.Rotation
	s.TransferTime += bd.Transfer
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
	sectors int64 // capacity
	head    int64 // LBN the head is positioned after
	stats   Stats
}

// New creates a disk of the given capacity in sectors. It panics on a
// non-positive capacity (a configuration bug).
func New(sectors int64) *Disk {
	if sectors <= 0 {
		panic(fmt.Sprintf("disk: Sectors %d", sectors))
	}
	return &Disk{sectors: sectors}
}

// Sectors implements Device.
func (d *Disk) Sectors() int64 { return d.sectors }

// Stats implements Device.
func (d *Disk) Stats() Stats { return d.stats }

// ServiceTime computes the time to serve an access given the current head
// position, the same time Access charges (rotational latency at its mean,
// half a revolution).
func (d *Disk) ServiceTime(lbn, sectors int64) time.Duration {
	return serviceBreakdown(d.sectors, d.head, lbn, sectors).Total()
}

// Access implements Device.
func (d *Disk) Access(p *sim.Proc, lbn, sectors int64, write bool) Breakdown {
	if lbn < 0 || sectors <= 0 || lbn+sectors > d.sectors {
		panic(fmt.Sprintf("disk: access [%d,%d) outside device of %d sectors", lbn, lbn+sectors, d.sectors))
	}
	bd := d.serve(lbn, sectors, write)
	p.Sleep(bd.Total())
	return bd
}

// The drive model: one 7200-RPM SATA drive of the paper's era (HP
// MM0500FAMYT class). No run varies it; the capacity is New's argument.
const (
	seekMin = 500 * time.Microsecond // track-to-track seek
	seekMax = 9 * time.Millisecond   // full-stroke seek
	rpm     = 7200                   // spindle speed

	// transferRate is the sustained media rate in bytes/second once the
	// head is positioned.
	transferRate = 90e6

	// seqWindow is the maximum forward gap, in sectors, that is still
	// served by streaming over the gap instead of seeking: the head reads
	// past unwanted sectors at media rate. Typical real-disk firmware
	// behaves this way for short forward skips.
	seqWindow = 512 // 256 KB forward skip

	// commandOverhead is the fixed per-request controller/command cost.
	commandOverhead = 100 * time.Microsecond
)

// rotation is the expected rotational latency, computed once at run time:
// as a constant expression it would not truncate to a Duration.
var rotation = halfRotation(rpm)

// serviceBreakdown decomposes one access from head into its components on
// a drive of capacity sectors, charging the expected rotational latency for
// non-streamed moves. The total is identical to the historical overhead +
// positioning + transfer sum.
func serviceBreakdown(capacity, head, lbn, sectors int64) Breakdown {
	bd := Breakdown{
		Overhead: commandOverhead,
		Transfer: transferTime(sectors),
	}
	dist := lbn - head
	switch {
	case dist == 0:
	case dist > 0 && dist <= seqWindow:
		// Stream over the short forward gap at media rate.
		bd.Seek = time.Duration(float64(dist*SectorSize) / transferRate * float64(time.Second))
	default:
		if dist < 0 {
			dist = -dist
		}
		frac := math.Sqrt(float64(dist) / float64(capacity))
		bd.Seek = seekMin + time.Duration(frac*float64(seekMax-seekMin))
		bd.Rotation = rotation
	}
	return bd
}

// halfRotation is the expected rotational latency: half a revolution.
func halfRotation(rpm int) time.Duration {
	return time.Duration(float64(time.Minute) / float64(rpm) / 2)
}

// transferTime is the media transfer time for sectors sectors.
func transferTime(sectors int64) time.Duration {
	bytes := float64(sectors * SectorSize)
	return time.Duration(bytes / transferRate * float64(time.Second))
}
