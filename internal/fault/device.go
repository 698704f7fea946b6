package fault

import (
	"time"

	"dualpar/internal/disk"
	"dualpar/internal/sim"
)

// Device wraps a disk.Device and inflates its service time during active
// DiskSlow windows: the wrapped access is charged normally, then the
// degradation surcharge (factor-1 times the healthy service time) is slept
// on top. Stats delegate to the wrapped device, so locality daemons observe
// the real access pattern — only time degrades.
type Device struct {
	inner  disk.Device
	inj    *Injector
	server int
}

// WrapDevice wraps dev for the given data-server index. With a nil
// injector the wrapper is a transparent pass-through.
func WrapDevice(dev disk.Device, inj *Injector, server int) *Device {
	return &Device{inner: dev, inj: inj, server: server}
}

// Access implements disk.Device. The degradation surcharge is folded into
// the returned breakdown's Overhead, so the components still sum to the
// time charged.
func (d *Device) Access(p *sim.Proc, lbn, sectors int64, write bool) disk.Breakdown {
	bd := d.inner.Access(p, lbn, sectors, write)
	if f := d.inj.DiskFactor(d.server, p.Now()); f > 1 {
		extra := time.Duration(float64(bd.Total()) * (f - 1))
		p.Sleep(extra)
		bd.Overhead += extra
	}
	return bd
}

// Sectors implements disk.Device.
func (d *Device) Sectors() int64 { return d.inner.Sectors() }

// Stats implements disk.Device.
func (d *Device) Stats() disk.Stats { return d.inner.Stats() }
