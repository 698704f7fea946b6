package disk

import (
	"testing"

	"dualpar/internal/sim"
)

// BenchmarkRAID0Access measures one striped access on the default two-drive
// RAID: a 256 KB request spanning four 64 KB chunks, two per member, at a
// sliding offset so the members seek. The per-member run buffer is reused,
// so the steady state allocates nothing.
func BenchmarkRAID0Access(b *testing.B) {
	b.ReportAllocs()
	r := NewRAID0([]*Disk{New(testSectors), New(testSectors)}, 128)
	k := sim.NewKernel(1)
	k.Spawn("bench", func(pr *sim.Proc) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			lbn := int64(i%4096) * 4096
			r.Access(pr, lbn, 512, i%2 == 1)
		}
	})
	k.Run()
}
