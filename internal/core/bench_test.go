package core

import (
	"fmt"
	"math/rand"
	"testing"

	"dualpar/internal/disk"
	"dualpar/internal/ext"
	"dualpar/internal/workloads"
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

// BenchmarkEMCReqDist is EMC's aveReqDist over a pooled 500-program log of
// random single-extent requests: every request is a run of its own, the
// merge's worst shape. The pool is only read, so iterations share it; a
// warm merge allocates nothing.
func BenchmarkEMCReqDist(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var pool fileExtents
	for p := 0; p < emcBenchPrograms; p++ {
		var log fileExtents
		benchLog(&log, rng)
		pool.addAll(&log)
	}
	benchReqDist(b, &pool)
}

// BenchmarkEMCReqDistNoncontig is aveReqDist over the noncontig shape
// behind the paper's mechanism: 64 ranks each read their column of 8
// calls, every request a strided run, the ranks interleaved call by call
// as the log receives them.
func BenchmarkEMCReqDistNoncontig(b *testing.B) {
	prog := workloads.DefaultNoncontig()
	gens := make([]workloads.RankGen, prog.Ranks())
	for r := range gens {
		gens[r] = prog.NewRank(r)
	}
	var pool fileExtents
	for call := 0; call < 8; call++ {
		for _, g := range gens {
			op := g.Next(workloads.TrueEnv{})
			for op.Kind != workloads.OpRead {
				op = g.Next(workloads.TrueEnv{})
			}
			pool.add(op.File, op.Extents)
		}
	}
	benchReqDist(b, &pool)
}

var reqDistSink float64

func benchReqDist(b *testing.B, pool *fileExtents) {
	var m ext.Merger
	reqDistSectors(pool, &m) // size the merge
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reqDistSink = reqDistSectors(pool, &m)
	}
}

// BenchmarkEMCSlot is one EMC slot over 500 DualPar programs: pooling
// their request logs, the ReqDist merge, and one decision row each. The
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
