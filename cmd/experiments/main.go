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
// the serial path. -parallel N caps each sweep level separately: the
// experiments are one sweep and each experiment's cells another, nested
// inside it, so up to N×N cells can run at once. Output tables are
// byte-identical at any setting (the sweep engine merges cells in canonical
// order); only stderr progress-line interleaving differs. -seed 0 is
// rejected: seeds start at 1.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"

	"dualpar/internal/fs"
	"dualpar/internal/harness"
	"dualpar/internal/metrics"
)

func main() {
	run := flag.String("run", "all", "experiment id or 'all'")
	quick := flag.Bool("quick", false, "reduced workload sizes (smoke test)")
	seed := flag.Int64("seed", 1, "simulation seed")
	out := flag.String("out", "", "directory for CSV outputs")
	quiet := flag.Bool("q", false, "suppress progress lines")
	parallel := flag.Int("parallel", 0, "max concurrent cells per sweep level (0 = GOMAXPROCS, 1 = serial); experiments nest their own sweeps inside the sweep over experiments, so up to N×N cells can run at once")
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

	if *seed == 0 {
		// harness.Opts reads Seed 0 as "the default", seed 1, so -seed 0
		// would silently print seed 1's tables.
		fmt.Fprintln(os.Stderr, "-seed 0 is not a seed: seeds start at 1 (the default)")
		os.Exit(2)
	}
	fcfg := fs.DefaultConfig()
	fcfg.Engine = *engine
	if err := fcfg.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
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

	known := make([]string, len(harness.Experiments))
	for i, e := range harness.Experiments {
		known[i] = e.ID
	}
	ids := known
	if *run != "all" {
		ids = strings.Split(*run, ",")
		for _, id := range ids {
			if !slices.Contains(known, id) {
				fmt.Fprintf(os.Stderr, "unknown experiment %q; known: %s\n", id, strings.Join(known, " "))
				os.Exit(2)
			}
		}
	}
	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	// Results print after the whole sweep, in request order, so stdout is
	// byte-identical at any parallelism.
	results, err := harness.Run(opts, ids)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	for _, res := range results {
		res.WriteText(os.Stdout)
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
