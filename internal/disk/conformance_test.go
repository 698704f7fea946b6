package disk_test

import (
	"testing"
	"time"

	"dualpar/internal/disk"
	"dualpar/internal/fault"
	"dualpar/internal/sim"
)

// Every device model must return a breakdown whose Total is exactly the
// virtual time it charged and the busy time its Stats accumulated (for the
// DiskSlow wrapper, the healthy busy time plus the surcharge folded into
// Overhead).
func TestDeviceConformance(t *testing.T) {
	const sectors = 1 << 24
	cases := []struct {
		name string
		make func(k *sim.Kernel) disk.Device
		slow float64 // DiskSlow factor; 1 = healthy
		// members reports whether Stats' SeekTime and TransferTime sum
		// every member's runs (RAID0), not only the gating one's.
		members bool
	}{
		{name: "disk", make: func(*sim.Kernel) disk.Device { return disk.New(sectors) }, slow: 1},
		{name: "raid0", make: func(*sim.Kernel) disk.Device {
			return disk.NewRAID0([]*disk.Disk{disk.New(sectors), disk.New(sectors)}, 128)
		}, slow: 1, members: true},
		{name: "ssd", make: func(*sim.Kernel) disk.Device { return disk.NewSSD() }, slow: 1},
		{name: "fault", make: func(k *sim.Kernel) disk.Device {
			inj := fault.NewInjector(k, &fault.Schedule{Windows: []fault.Window{
				{Kind: fault.DiskSlow, Target: 2, Factor: 3},
			}}, 1)
			return fault.WrapDevice(disk.New(sectors), inj, 2)
		}, slow: 3},
	}
	// Sequential, a short forward skip, long seeks both ways, writes, and
	// runs spanning several RAID chunks.
	accesses := []struct {
		lbn, sectors int64
		write        bool
	}{
		{0, 64, false}, {64, 64, false}, {200, 8, true}, {1 << 23, 512, false},
		{1000, 300, true}, {1<<23 + 7, 1024, false}, {5, 1, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			k := sim.NewKernel(1)
			dev := c.make(k)
			k.Spawn("dispatch", func(pr *sim.Proc) {
				for _, a := range accesses {
					before, start := dev.Stats(), pr.Now()
					bd := dev.Access(pr, a.lbn, a.sectors, a.write)
					d := dev.Stats().Sub(before)
					if got := pr.Now() - start; bd.Total() != got {
						t.Errorf("%+v: Total %v, charged %v", a, bd.Total(), got)
					}
					if want := d.BusyTime + time.Duration(float64(d.BusyTime)*(c.slow-1)); bd.Total() != want {
						t.Errorf("%+v: Total %v, want %v from busy-time delta %v", a, bd.Total(), want, d.BusyTime)
					}
					if bd.Overhead < 0 || bd.Seek < 0 || bd.Rotation < 0 || bd.Transfer <= 0 {
						t.Errorf("%+v: breakdown %+v has a negative or empty component", a, bd)
					}
					if d.Accesses != 1 || d.BytesRead+d.BytesWritten != a.sectors*512 {
						t.Errorf("%+v: stats delta %+v", a, d)
					}
					pos, xfer := bd.Seek+bd.Rotation, bd.Transfer
					if c.members {
						if d.SeekTime < pos || d.TransferTime < xfer {
							t.Errorf("%+v: member times %v/%v below the gating run's %v/%v", a, d.SeekTime, d.TransferTime, pos, xfer)
						}
					} else if d.SeekTime != pos || d.TransferTime != xfer {
						t.Errorf("%+v: seek/transfer delta %v/%v, breakdown %v/%v", a, d.SeekTime, d.TransferTime, pos, xfer)
					}
				}
			})
			k.Run()
		})
	}
}
