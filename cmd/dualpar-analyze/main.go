// Command dualpar-analyze explains where a finished run's simulated time
// went. It reads a Chrome trace-event JSON file written by dualpar-sim
// -trace (or any obs.WriteTrace output) and prints the time-attribution
// report: per-phase breakdown with a conservation check, per-server
// utilization timelines with a load-imbalance index, and the longest
// requests' critical paths.
//
// Usage:
//
//	dualpar-sim -workload noncontig -mode dualpar -trace run.json
//	dualpar-analyze run.json
//	dualpar-analyze -format json -buckets 40 -top 5 run.json
//	dualpar-analyze -strict run.json        # also fail on empty critical path
//
// The input path "-" reads from stdin. Exit status: 0 on a conserving
// report, 1 when attribution fails conservation (or, with -strict, when no
// critical path could be extracted), 2 on usage or parse errors.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"dualpar/internal/obs/analyze"
)

func main() {
	format := flag.String("format", "text", "output format: text|json|csv")
	buckets := flag.Int("buckets", 0, "utilization timeline buckets per server (default 20)")
	top := flag.Int("top", 0, "critical paths to keep (default 3)")
	strict := flag.Bool("strict", false, "also fail (exit 1) when no critical path was extracted")
	flag.Parse()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: dualpar-analyze [-format text|json|csv] [-buckets N] [-top N] [-strict] trace.json")
		os.Exit(2)
	}
	render := map[string]func(*analyze.Report, io.Writer) error{
		"text": (*analyze.Report).RenderText,
		"json": (*analyze.Report).RenderJSON,
		"csv":  (*analyze.Report).RenderCSV,
	}[*format]
	switch {
	case render == nil:
		fmt.Fprintf(os.Stderr, "unknown format %q\n", *format)
		os.Exit(2)
	case *buckets < 0:
		fmt.Fprintf(os.Stderr, "-buckets %d: must not be negative\n", *buckets)
		os.Exit(2)
	case *top < 0:
		fmt.Fprintf(os.Stderr, "-top %d: must not be negative\n", *top)
		os.Exit(2)
	}
	var in io.Reader
	if path := flag.Arg(0); path == "-" {
		in = os.Stdin
	} else {
		f, err := os.Open(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		defer f.Close()
		in = f
	}
	spans, err := analyze.ParseTrace(in)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	rep := analyze.Analyze(spans, analyze.Options{Buckets: *buckets, TopPaths: *top})
	if err := render(rep, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	if !rep.Conserved() {
		fmt.Fprintf(os.Stderr, "dualpar-analyze: attribution violates conservation (max residual %dns)\n",
			int64(rep.MaxResidual))
		os.Exit(1)
	}
	if *strict {
		if len(rep.CriticalPaths) == 0 {
			fmt.Fprintln(os.Stderr, "dualpar-analyze: no critical path extracted (no traced requests?)")
			os.Exit(1)
		}
		for _, cp := range rep.CriticalPaths {
			if len(cp.Path) == 0 {
				fmt.Fprintf(os.Stderr, "dualpar-analyze: request %d has an empty critical path\n", cp.ID)
				os.Exit(1)
			}
		}
	}
}
