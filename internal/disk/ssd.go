package disk

import (
	"fmt"
	"time"

	"dualpar/internal/sim"
)

// SSD models a flash device: no mechanical positioning, a fixed per-command
// latency, and a transfer rate. It exists for the forward-looking ablation
// the paper's premise invites: DualPar's benefit comes from turning random
// disk access into sequential access, so on an SSD — where the two cost the
// same — the data-driven mode's advantage should collapse to its batching
// side effects.
//
// Its parameters approximate a SATA-era MLC SSD.
type SSD struct {
	stats Stats
	head  int64 // tracked only so seek statistics remain comparable
}

const (
	ssdSectorSize = 512
	ssdSectors    = 1 << 29 // 256 GB
	// ssdReadLatency and ssdWriteLatency are the per-command access
	// latencies.
	ssdReadLatency  = 80 * time.Microsecond
	ssdWriteLatency = 200 * time.Microsecond
	// ssdTransferRate is in bytes/second.
	ssdTransferRate = 250e6
)

// NewSSD creates an SSD device.
func NewSSD() *SSD { return &SSD{} }

// Sectors implements Device.
func (d *SSD) Sectors() int64 { return ssdSectors }

// Stats implements Device.
func (d *SSD) Stats() Stats { return d.stats }

// Access implements Device: position-independent service time. Flash has
// no mechanical positioning, so the breakdown is per-command latency
// (Overhead) plus Transfer.
func (d *SSD) Access(p *sim.Proc, lbn, sectors int64, write bool) Breakdown {
	if lbn < 0 || sectors <= 0 || lbn+sectors > ssdSectors {
		panic(fmt.Sprintf("ssd: access [%d,%d) outside device of %d sectors", lbn, lbn+sectors, ssdSectors))
	}
	lat := ssdReadLatency
	if write {
		lat = ssdWriteLatency
	}
	bytes := sectors * ssdSectorSize
	bd := Breakdown{Overhead: lat, Transfer: time.Duration(float64(bytes) / ssdTransferRate * float64(time.Second))}
	d.stats.record(d.head, lbn, sectors, ssdSectorSize, write, bd)
	d.head = lbn + sectors
	p.Sleep(bd.Total())
	return bd
}
