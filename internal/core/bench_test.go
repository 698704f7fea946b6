package core

import (
	"fmt"
	"math/rand"
	"testing"

	"dualpar/internal/disk"
	"dualpar/internal/ext"
)

// emcBenchPrograms is how many programs the EMC benchmarks evaluate per
// slot: a crowded shared cluster.
const emcBenchPrograms = 500

// benchLog fills fe with one program's slot of requests: 16 requests of
// 16 KB over 4 shared files, at seeded offsets with many ties.
func benchLog(fe *fileExtents, rng *rand.Rand) {
	for i := 0; i < 16; i++ {
		file := fmt.Sprintf("f%d.dat", rng.Intn(4))
		fe.add(file, []ext.Extent{{Off: rng.Int63n(1<<14) * (16 << 10), Len: 16 << 10}})
	}
}

// BenchmarkEMCReqDist is EMC's aveReqDist over a pooled 500-program log.
// Each iteration first restores the pool's unsorted order by copy, which
// reqDistSectors then sorts in place; the pair allocates nothing.
func BenchmarkEMCReqDist(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var pool fileExtents
	for p := 0; p < emcBenchPrograms; p++ {
		var log fileExtents
		benchLog(&log, rng)
		pool.addAll(&log)
	}
	files := append([]string(nil), pool.files...)
	orig := make(map[string][]ext.Extent, len(files))
	for _, f := range files {
		orig[f] = append([]ext.Extent(nil), pool.byFile[f]...)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(pool.files, files)
		for f, xs := range orig {
			copy(pool.byFile[f], xs)
		}
		reqDistSectors(&pool)
	}
}

// BenchmarkEMCSlot is one EMC slot over 500 DualPar programs: pooling
// their request logs, the ReqDist sort, and one decision row each. The
// programs are idle, so no mode switches; the decision log keeps growing,
// one chunk per ~2 slots, which B/op shows.
func BenchmarkEMCSlot(b *testing.B) {
	r := NewRunner(smallCluster(1), DefaultConfig())
	m := smallMPIIOTest(false)
	m.Procs = 1
	for p := 0; p < emcBenchPrograms; p++ {
		r.Add(m, ModeDualPar, AddOptions{RanksPerNode: 1})
	}
	r.emc.lastDisk = make([]disk.Stats, len(r.cl.Stores))
	logs := make([]fileExtents, emcBenchPrograms)
	rng := rand.New(rand.NewSource(1))
	for p := range logs {
		benchLog(&logs[p], rng)
	}
	slot := func() {
		for p, pr := range r.progs {
			pr.log.addAll(&logs[p])
		}
		r.emc.slot()
	}
	slot() // size the logs and the pool
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		slot()
	}
	b.StopTimer()
	if got := len(r.EMCDecisions()); got != (b.N+1)*emcBenchPrograms {
		b.Fatalf("%d decisions after %d slots", got, b.N+1)
	}
}
