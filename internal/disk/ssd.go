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
type SSDParams struct {
	SectorSize   int
	Sectors      int64
	ReadLatency  time.Duration // per-command access latency
	WriteLatency time.Duration
	TransferRate float64 // bytes/second
	Seed         int64
}

// DefaultSSDParams approximates a SATA-era MLC SSD.
func DefaultSSDParams() SSDParams {
	return SSDParams{
		SectorSize:   512,
		Sectors:      1 << 29, // 256 GB
		ReadLatency:  80 * time.Microsecond,
		WriteLatency: 200 * time.Microsecond,
		TransferRate: 250e6,
	}
}

// Validate reports parameter errors.
func (p SSDParams) Validate() error {
	switch {
	case p.SectorSize <= 0:
		return fmt.Errorf("ssd: SectorSize %d", p.SectorSize)
	case p.Sectors <= 0:
		return fmt.Errorf("ssd: Sectors %d", p.Sectors)
	case p.ReadLatency < 0 || p.WriteLatency < 0:
		return fmt.Errorf("ssd: negative latency")
	case p.TransferRate <= 0:
		return fmt.Errorf("ssd: TransferRate %g", p.TransferRate)
	}
	return nil
}

// SSD implements Device.
type SSD struct {
	params SSDParams
	stats  Stats
	head   int64 // tracked only so seek statistics remain comparable
}

// NewSSD creates an SSD device.
func NewSSD(params SSDParams) *SSD {
	if err := params.Validate(); err != nil {
		panic(err)
	}
	return &SSD{params: params}
}

// Sectors implements Device.
func (d *SSD) Sectors() int64 { return d.params.Sectors }

// Stats implements Device.
func (d *SSD) Stats() Stats { return d.stats }

// Access implements Device: position-independent service time. Flash has
// no mechanical positioning, so the breakdown is per-command latency
// (Overhead) plus Transfer.
func (d *SSD) Access(p *sim.Proc, lbn, sectors int64, write bool) Breakdown {
	if lbn < 0 || sectors <= 0 || lbn+sectors > d.params.Sectors {
		panic(fmt.Sprintf("ssd: access [%d,%d) outside device of %d sectors", lbn, lbn+sectors, d.params.Sectors))
	}
	lat := d.params.ReadLatency
	if write {
		lat = d.params.WriteLatency
	}
	bytes := sectors * int64(d.params.SectorSize)
	bd := Breakdown{Overhead: lat, Transfer: time.Duration(float64(bytes) / d.params.TransferRate * float64(time.Second))}
	d.stats.record(d.head, lbn, sectors, d.params.SectorSize, write, bd)
	d.head = lbn + sectors
	p.Sleep(bd.Total())
	return bd
}
