// Tracing: reproduces the paper's blktrace methodology (Figs 1c/d, 6).
// Two mpi-io-test instances run concurrently under vanilla MPI-IO and then
// under DualPar; the example prints each run's disk-access pattern on data
// server 1 and the seek statistics.
//
//	go run ./examples/tracing
package main

import (
	"fmt"
	"strings"
	"time"

	"dualpar/internal/cluster"
	"dualpar/internal/core"
	"dualpar/internal/disk"
	"dualpar/internal/workloads"
)

func main() {
	for _, mode := range []core.Mode{core.ModeVanilla, core.ModeDataDriven} {
		ccfg := cluster.DefaultConfig()
		ccfg.TraceServers = true
		cl := cluster.New(ccfg)
		runner := core.NewRunner(cl, core.DefaultConfig())
		for i := 0; i < 2; i++ {
			m := workloads.DefaultMPIIOTest()
			m.FileBytes = 48 << 20
			m.FileName = fmt.Sprintf("file-%d.dat", i)
			runner.Add(m, mode, core.AddOptions{RanksPerNode: 8})
		}
		if !runner.Run(time.Hour) {
			panic("did not finish")
		}
		entries := cl.Stores[0].Dispatcher().Trace().Entries()
		fmt.Printf("== %s: disk accesses on data server 1 ==\n", mode)
		scatter(entries)
		fmt.Printf("accesses %d, monotonicity %.2f, mean seek %.0f sectors\n\n",
			len(entries), disk.Monotonicity(entries), disk.MeanSeek(entries))
	}
	fmt.Println("Under vanilla the head hops between the two files' regions; under")
	fmt.Println("DualPar each cycle sweeps one region in ascending order (paper Fig 6).")
}

// scatter draws LBN over time.
func scatter(entries []disk.Entry) {
	if len(entries) == 0 {
		fmt.Println("(no entries)")
		return
	}
	const width, height = 72, 14
	minT, maxT := entries[0].At, entries[len(entries)-1].At
	minL, maxL := entries[0].LBN, entries[0].LBN
	for _, e := range entries {
		if e.LBN < minL {
			minL = e.LBN
		}
		if e.LBN > maxL {
			maxL = e.LBN
		}
	}
	if maxT == minT {
		maxT++
	}
	if maxL == minL {
		maxL++
	}
	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	for _, e := range entries {
		x := int(float64(e.At-minT) / float64(maxT-minT) * float64(width-1))
		y := int(float64(e.LBN-minL) / float64(maxL-minL) * float64(height-1))
		grid[height-1-y][x] = '#'
	}
	for _, row := range grid {
		fmt.Printf("|%s|\n", row)
	}
}
