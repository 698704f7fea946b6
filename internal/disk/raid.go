package disk

import (
	"fmt"

	"dualpar/internal/sim"
)

// RAID0 stripes a logical LBN space across member disks in fixed-size
// chunks, serving the per-member portions of an access in parallel (the
// access completes when the slowest member does). The paper's data servers
// each have a two-drive hardware RAID.
type RAID0 struct {
	members      []*Disk
	chunkSectors int64
	sectors      int64
	stats        Stats
	runs         []memberRun // Access's scratch: one pending run per member
}

// memberRun is one member's contiguous run within an access.
type memberRun struct {
	lbn, sectors int64
	active       bool
}

// NewRAID0 builds a RAID0 over members with the given chunk size in sectors.
func NewRAID0(members []*Disk, chunkSectors int64) *RAID0 {
	if len(members) == 0 {
		panic("disk: RAID0 needs at least one member")
	}
	if chunkSectors <= 0 {
		panic("disk: RAID0 chunk must be positive")
	}
	min := members[0].Sectors()
	for _, m := range members {
		if m.Sectors() < min {
			min = m.Sectors()
		}
	}
	return &RAID0{
		members:      members,
		chunkSectors: chunkSectors,
		sectors:      min * int64(len(members)),
		runs:         make([]memberRun, len(members)),
	}
}

// Sectors implements Device.
func (r *RAID0) Sectors() int64 { return r.sectors }

// Stats implements Device.
func (r *RAID0) Stats() Stats {
	// Aggregate member counters but preserve RAID-level access count.
	agg := r.stats
	for _, m := range r.members {
		s := m.Stats()
		agg.Seeks += s.Seeks
		agg.SeekSectors += s.SeekSectors
		agg.BytesRead += s.BytesRead
		agg.BytesWritten += s.BytesWritten
		agg.SeekTime += s.SeekTime
		agg.TransferTime += s.TransferTime
	}
	return agg
}

// Access implements Device: the logical range is split into per-member runs
// and the service time is the maximum of the member times, as the members
// operate concurrently. The access completes when the slowest member does,
// so the gating member's breakdown is the access's breakdown.
func (r *RAID0) Access(p *sim.Proc, lbn, sectors int64, write bool) Breakdown {
	if lbn < 0 || sectors <= 0 || lbn+sectors > r.sectors {
		panic(fmt.Sprintf("disk: RAID0 access [%d,%d) outside %d sectors", lbn, lbn+sectors, r.sectors))
	}
	n := int64(len(r.members))
	// Walk the logical range chunk by chunk, accumulating a contiguous run
	// per member, then charge each member its run in one operation. Every
	// run is flushed before the Proc sleeps, so one buffer serves all
	// accesses.
	runs := r.runs
	var worst Breakdown
	flush := func(i int64) {
		if !runs[i].active {
			return
		}
		if bd := r.members[i].serve(runs[i].lbn, runs[i].sectors, write); bd.Total() > worst.Total() {
			worst = bd
		}
		runs[i].active = false
	}
	for off := lbn; off < lbn+sectors; {
		chunk := off / r.chunkSectors
		member := chunk % n
		mlbn := (chunk/n)*r.chunkSectors + off%r.chunkSectors
		span := r.chunkSectors - off%r.chunkSectors
		if rem := lbn + sectors - off; span > rem {
			span = rem
		}
		ru := &runs[member]
		if ru.active && ru.lbn+ru.sectors == mlbn {
			ru.sectors += span
		} else {
			flush(member)
			*ru = memberRun{lbn: mlbn, sectors: span, active: true}
		}
		off += span
	}
	for i := int64(0); i < n; i++ {
		flush(i)
	}
	r.stats.Accesses++
	r.stats.BusyTime += worst.Total()
	p.Sleep(worst.Total())
	return worst
}

// serve performs an access without a Proc, charging the expected rotational
// latency: Access sleeps for the result, and RAID0 sleeps for its slowest
// member's.
func (d *Disk) serve(lbn, sectors int64, write bool) Breakdown {
	bd := serviceBreakdown(d.params, d.head, lbn, sectors, halfRotation(d.params.RPM))
	d.stats.record(d.head, lbn, sectors, d.params.SectorSize, write, bd)
	d.head = lbn + sectors
	return bd
}
