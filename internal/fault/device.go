package fault

import (
	"time"

	"dualpar/internal/disk"
	"dualpar/internal/sim"
)

// Device wraps a disk.Device and inflates its service time during active
// DiskSlow windows: the wrapped access is charged normally, then the
// degradation surcharge (factor-1 times the healthy service time) is slept
// on top. Stats and traces delegate to the wrapped device, so locality
// daemons observe the real access pattern — only time degrades.
type Device struct {
	inner     disk.Device
	inj       *Injector
	server    int
	lastExtra time.Duration // degradation surcharge of the latest access
}

// WrapDevice wraps dev for the given data-server index. With a nil
// injector the wrapper is a transparent pass-through.
func WrapDevice(dev disk.Device, inj *Injector, server int) *Device {
	return &Device{inner: dev, inj: inj, server: server}
}

// Access implements disk.Device.
func (d *Device) Access(p *sim.Proc, lbn, sectors int64, write bool) time.Duration {
	t := d.inner.Access(p, lbn, sectors, write)
	d.lastExtra = 0
	if f := d.inj.DiskFactor(d.server, p.Now()); f > 1 {
		extra := time.Duration(float64(t) * (f - 1))
		p.Sleep(extra)
		t += extra
		d.lastExtra = extra
	}
	return t
}

// LastBreakdown implements disk.BreakdownReporter: the wrapped device's
// breakdown with the degradation surcharge folded into Overhead, so the
// components still sum to the time the dispatcher observed.
func (d *Device) LastBreakdown() disk.Breakdown {
	br, ok := d.inner.(disk.BreakdownReporter)
	if !ok {
		return disk.Breakdown{}
	}
	bd := br.LastBreakdown()
	bd.Overhead += d.lastExtra
	return bd
}

// Sectors implements disk.Device.
func (d *Device) Sectors() int64 { return d.inner.Sectors() }

// Stats implements disk.Device.
func (d *Device) Stats() disk.Stats { return d.inner.Stats() }

// Trace implements disk.Device.
func (d *Device) Trace() *disk.Trace { return d.inner.Trace() }
