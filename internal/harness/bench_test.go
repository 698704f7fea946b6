package harness

import (
	"fmt"
	"io"
	"testing"
)

// BenchmarkSweepDispatch measures the pool's per-cell overhead: 256 trivial
// cells through the claim/recover machinery, serial vs worker counts. The
// work per cell is negligible, so this isolates what the engine itself
// costs on top of the cells.
func BenchmarkSweepDispatch(b *testing.B) {
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			keys := cellKeys("cell", 256)
			for n := 0; n < b.N; n++ {
				if _, err := runCells(workers, keys, func(i int) int { return i }); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchOpts silences experiment logging and pins the parallelism.
func benchOpts(workers int) Opts {
	return Opts{Quick: true, Log: io.Discard, Parallel: workers}
}

// BenchmarkSweepFig3Serial / Parallel run a real experiment sweep (Fig 3,
// quick workloads: 2 access patterns x 3 schemes plus two collective
// variants) end to end. On a multi-core machine the parallel variant's
// wall-clock should approach serial divided by min(GOMAXPROCS, cells);
// simulated results are byte-identical either way.
func BenchmarkSweepFig3Serial(b *testing.B) {
	benchSweepFig3(b, 1)
}

func BenchmarkSweepFig3Parallel(b *testing.B) {
	benchSweepFig3(b, 0) // 0 = GOMAXPROCS workers
}

func benchSweepFig3(b *testing.B, workers int) {
	b.ReportAllocs()
	for n := 0; n < b.N; n++ {
		res := Fig3(benchOpts(workers))
		if len(res.Table.Rows) == 0 {
			b.Fatal("Fig3 produced no rows")
		}
	}
}
