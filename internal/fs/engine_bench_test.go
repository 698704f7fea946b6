package fs

import (
	"testing"
	"time"

	"dualpar/internal/sim"
)

// benchEngine builds a bare engine (no store, no kernel) with a fully
// allocated 256 MB file — enough extents that the lookup cost separates:
// the extent layout's map holds a handful of merged extents, the aged
// (bptree) layout's the same map with 4096 fragments of 64 KB.
func benchEngine(b *testing.B, kind string) StorageEngine {
	b.Helper()
	cfg := DefaultConfig()
	cfg.Engine = kind
	e := newEngine(cfg)
	e.Ensure("bench.dat", 256<<20)
	return e
}

// BenchmarkEngineReadRuns measures the file-offset → LBN lookup path per
// engine: 64 KB reads striding through the 256 MB file.
func BenchmarkEngineReadRuns(b *testing.B) {
	for _, kind := range Engines() {
		b.Run(kind, func(b *testing.B) {
			e := benchEngine(b, kind)
			b.ReportAllocs()
			b.ResetTimer()
			var runs []lbnRun
			for n := 0; n < b.N; n++ {
				off := int64(n) % (256 << 20 / (64 << 10)) * (64 << 10)
				runs = e.ReadRuns(runs[:0], "bench.dat", off, 64<<10)
				if len(runs) == 0 {
					b.Fatal("no runs")
				}
			}
		})
	}
}

// BenchmarkEngineWriteRuns measures write landing per engine: update in
// place for the extent and aged layouts, log append (with page remapping)
// for LSM. Writes rotate over a 16 MB window so the LSM page map stays
// bounded while its log still accumulates garbage the way a real overwrite
// stream does.
func BenchmarkEngineWriteRuns(b *testing.B) {
	for _, kind := range Engines() {
		b.Run(kind, func(b *testing.B) {
			e := benchEngine(b, kind)
			b.ReportAllocs()
			b.ResetTimer()
			var runs []lbnRun
			for n := 0; n < b.N; n++ {
				off := int64(n) % (16 << 20 / (64 << 10)) * (64 << 10)
				runs = e.WriteRuns(runs[:0], "bench.dat", off, 64<<10)
				if len(runs) == 0 {
					b.Fatal("no runs")
				}
			}
		})
	}
}

// BenchmarkEngineStoreSyncWrite drives the full store stack (cache,
// dispatcher, device) per engine: one simulated proc sync-writing 64 KB
// blocks sequentially. This is the macro view the micro benchmarks above
// decompose; for LSM it includes background compaction riding along.
func BenchmarkEngineStoreSyncWrite(b *testing.B) {
	for _, kind := range Engines() {
		b.Run(kind, func(b *testing.B) {
			b.ReportAllocs()
			for n := 0; n < b.N; n++ {
				k := sim.NewKernel(1)
				cfg := DefaultConfig()
				cfg.Engine = kind
				s := newStore(k, cfg)
				k.Spawn("writer", func(p *sim.Proc) {
					for i := int64(0); i < 64; i++ {
						s.Write(p, "a", i*(64<<10), 64<<10, 1)
					}
					s.Sync(p)
				})
				k.RunUntil(time.Minute)
				if s.Device().Stats().BytesWritten == 0 {
					b.Fatal("no bytes reached the device")
				}
			}
		})
	}
}
