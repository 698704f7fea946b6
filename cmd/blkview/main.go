// Command blkview runs a workload with blktrace-style disk tracing enabled
// and dumps the access log of one data server — the raw data behind the
// paper's Figures 1(c,d) and 6 — as CSV or a terminal scatter plot.
//
// Usage:
//
//	blkview -workload mpi-io-test -mode vanilla -instances 2 [-server 0]
//	        [-from 1.0 -to 2.0] [-csv out.csv]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"dualpar/internal/cluster"
	"dualpar/internal/core"
	"dualpar/internal/disk"
	"dualpar/internal/workloads"
)

func main() {
	registry := workloads.Workloads().Instanced()
	workload := flag.String("workload", "mpi-io-test", registry.Names())
	mode := flag.String("mode", "vanilla", "vanilla|collective|strategy2|dualpar|data-driven")
	instances := flag.Int("instances", 1, "concurrent program instances")
	mbytes := flag.Int64("mb", 32, "data volume per instance in MiB")
	server := flag.Int("server", 0, "data server index to inspect")
	from := flag.Float64("from", 0, "window start (seconds)")
	to := flag.Float64("to", 0, "window end (seconds; 0 = whole run)")
	csvPath := flag.String("csv", "", "write CSV here instead of plotting")
	seed := flag.Int64("seed", 1, "simulation seed")
	flag.Parse()

	ccfg := cluster.DefaultConfig()
	ccfg.Seed = *seed
	ccfg.TraceServers = true
	if *server < 0 || *server >= ccfg.DataServers {
		fmt.Fprintf(os.Stderr, "-server %d out of range [0,%d)\n", *server, ccfg.DataServers)
		os.Exit(2)
	}
	w, err := registry.Lookup(*workload)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	m, err := core.ParseMode(*mode)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	cl := cluster.New(ccfg)
	runner := core.NewRunner(cl, core.DefaultConfig())
	for i := 0; i < *instances; i++ {
		prog := w.Build(workloads.Params{Bytes: *mbytes << 20, FileName: fmt.Sprintf("%s-%d.dat", w.Stem, i)})
		runner.Add(prog, m, core.AddOptions{RanksPerNode: 8})
	}
	if !runner.Run(24 * time.Hour) {
		fmt.Fprintln(os.Stderr, "simulation did not finish")
		os.Exit(1)
	}

	tr := cl.Stores[*server].Dispatcher().Trace()
	entries := tr.Entries()
	if *to > 0 {
		entries = tr.Window(secDur(*from), secDur(*to))
	} else if *from > 0 {
		entries = tr.Window(secDur(*from), time.Duration(1<<62))
	}
	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		fmt.Fprintln(f, "time_s,lbn,sectors,rw")
		for _, e := range entries {
			rw := "R"
			if e.Write {
				rw = "W"
			}
			fmt.Fprintf(f, "%.6f,%d,%d,%s\n", e.At.Seconds(), e.LBN, e.Sectors, rw)
		}
		fmt.Printf("wrote %d entries to %s\n", len(entries), *csvPath)
		return
	}
	plot(entries)
	fmt.Printf("entries: %d   monotonicity: %.2f   mean seek: %.0f sectors\n",
		len(entries), disk.Monotonicity(entries), disk.MeanSeek(entries))
}

func secDur(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// plot renders LBN-vs-time as a terminal scatter, the shape the paper's
// blktrace figures show.
func plot(entries []disk.Entry) {
	if len(entries) == 0 {
		fmt.Println("(no trace entries)")
		return
	}
	const width, height = 78, 20
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
		maxT = minT + 1
	}
	if maxL == minL {
		maxL = minL + 1
	}
	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	for _, e := range entries {
		x := int(float64(e.At-minT) / float64(maxT-minT) * float64(width-1))
		y := int(float64(e.LBN-minL) / float64(maxL-minL) * float64(height-1))
		ch := byte('r')
		if e.Write {
			ch = 'w'
		}
		grid[height-1-y][x] = ch
	}
	fmt.Printf("LBN %d..%d over %.3fs..%.3fs\n", minL, maxL, minT.Seconds(), maxT.Seconds())
	for _, row := range grid {
		fmt.Printf("|%s|\n", row)
	}
}
