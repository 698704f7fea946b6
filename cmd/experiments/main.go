// Command experiments regenerates every table and figure of the paper's
// evaluation. Results print as aligned tables; -out writes CSV files (and
// LBN trace series for the figure experiments) into a directory.
//
// Usage:
//
//	experiments [-run all|fig1a|fig1b|fig1cd|fig3|fig4|fig5|table2|fig6|fig7|fig8|table3|straggler|engines|...]
//	            [-quick] [-seed N] [-out DIR] [-q] [-parallel N] [-report]
//	            [-engine extent|bptree|lsm] [-cpuprofile FILE] [-memprofile FILE]
//
// Sweeps run across GOMAXPROCS workers by default; -parallel 1 falls back to
// the serial path. Output tables are byte-identical either way (the sweep
// engine merges cells in canonical order); only stderr progress-line
// interleaving differs.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"

	"dualpar/internal/fs"
	"dualpar/internal/harness"
	"dualpar/internal/metrics"
)

var experiments = map[string]func(harness.Opts) *harness.Result{
	"fig1a":  harness.Fig1a,
	"fig1b":  harness.Fig1b,
	"fig1cd": harness.Fig1cd,
	"fig3":   harness.Fig3,
	"fig4":   harness.Fig4,
	"fig5":   harness.Fig5,
	"table2": harness.Table2,
	"fig6":   harness.Fig6,
	"fig7":   harness.Fig7,
	"fig8":   harness.Fig8,
	"table3": harness.Table3,

	"ablate-sched":     harness.AblateScheduler,
	"ablate-t":         harness.AblateTImprovement,
	"ablate-hole":      harness.AblateHoleThreshold,
	"ablate-chunk":     harness.AblateChunkSize,
	"ablate-origins":   harness.AblateDiskOrigins,
	"ablate-cb":        harness.AblateCollectiveBuffer,
	"ablate-ssd":       harness.AblateSSD,
	"ablate-writepath": harness.AblateWritePath,
	"ablate-s2window":  harness.AblateStrategy2Window,
	"ablate-servers":   harness.AblateServers,
	"ablate-pipeline":  harness.AblatePipeline,

	"straggler":    harness.Straggler,
	"availability": harness.Availability,
	"checkpoint":   harness.Checkpoint,
	"multitenant":  harness.Multitenant,
	"engines":      harness.Engines,
}

var order = []string{
	"fig1a", "fig1b", "fig1cd", "fig3", "fig4", "fig5", "table2", "fig6", "fig7", "fig8", "table3",
	"ablate-sched", "ablate-t", "ablate-hole", "ablate-chunk", "ablate-origins", "ablate-cb", "ablate-ssd",
	"ablate-writepath", "ablate-s2window", "ablate-servers", "ablate-pipeline",
	"straggler", "availability", "checkpoint", "multitenant", "engines",
}

func main() {
	run := flag.String("run", "all", "experiment id or 'all'")
	quick := flag.Bool("quick", false, "reduced workload sizes (smoke test)")
	seed := flag.Int64("seed", 1, "simulation seed")
	out := flag.String("out", "", "directory for CSV outputs")
	quiet := flag.Bool("q", false, "suppress progress lines")
	parallel := flag.Int("parallel", 0, "max concurrent sweep cells (0 = GOMAXPROCS, 1 = serial)")
	audit := flag.Bool("audit", false, "arm the invariant oracles on every run (fail loudly with a reproducer artifact)")
	report := flag.Bool("report", false, "attach tracing to every run and print time-attribution reports after the tables")
	engine := flag.String("engine", "", "data-server storage engine: extent|bptree|lsm (default extent; the engines experiment sweeps all three regardless)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		path := *memprofile
		defer func() {
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize final live-heap state
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}()
	}

	validEngine := *engine == ""
	for _, e := range fs.Engines() {
		if *engine == e {
			validEngine = true
		}
	}
	if !validEngine {
		fmt.Fprintf(os.Stderr, "unknown engine %q; known: %s\n", *engine, strings.Join(fs.Engines(), " "))
		os.Exit(2)
	}

	var log io.Writer = os.Stderr
	if *quiet {
		log = nil
	}
	opts := harness.Opts{Quick: *quick, Seed: *seed, Log: log, Parallel: *parallel, Audit: *audit, Engine: *engine}
	if *report {
		opts.Reports = &harness.Reports{}
	}

	var ids []string
	if *run == "all" {
		ids = order
	} else {
		for _, id := range strings.Split(*run, ",") {
			if _, ok := experiments[id]; !ok {
				fmt.Fprintf(os.Stderr, "unknown experiment %q; known: %s\n", id, strings.Join(order, " "))
				os.Exit(2)
			}
			ids = append(ids, id)
		}
	}
	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	// Experiments run through the sweep pool (whole experiments are
	// themselves independent cells); results print afterwards in request
	// order, so stdout is byte-identical at any parallelism.
	results := make([]*harness.Result, len(ids))
	cells := make([]harness.Cell, len(ids))
	for i, id := range ids {
		cells[i] = harness.Cell{Key: id, Run: func() { results[i] = experiments[id](opts) }}
	}
	if err := harness.RunCells(context.Background(), *parallel, cells); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	for _, res := range results {
		fmt.Printf("== %s ==\n", res.Title)
		for _, n := range res.Notes {
			fmt.Printf("   note: %s\n", n)
		}
		fmt.Println(res.Table.String())
		for _, s := range res.Series {
			fmt.Print(metrics.ASCIIChart(s, 72, 8))
		}
		if *out != "" {
			if err := writeResult(*out, res); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
	}
	if opts.Reports != nil {
		// Reports drain sorted by run key, so this section is byte-identical
		// at any -parallel setting.
		for _, rr := range opts.Reports.Drain() {
			fmt.Printf("== report: %s ==\n", rr.Key)
			if err := rr.Report.RenderText(os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			if !rr.Report.Conserved() {
				fmt.Fprintf(os.Stderr, "run %s: attribution violates conservation (max residual %dns)\n",
					rr.Key, int64(rr.Report.MaxResidual))
				os.Exit(1)
			}
			fmt.Println()
		}
	}
}

func writeResult(dir string, res *harness.Result) error {
	f, err := os.Create(filepath.Join(dir, res.ID+".csv"))
	if err != nil {
		return err
	}
	defer f.Close()
	if err := res.Table.WriteCSVTable(f); err != nil {
		return err
	}
	if len(res.Series) > 0 {
		sf, err := os.Create(filepath.Join(dir, res.ID+"-series.csv"))
		if err != nil {
			return err
		}
		defer sf.Close()
		if err := metrics.WriteCSV(sf, res.Series...); err != nil {
			return err
		}
	}
	return nil
}
