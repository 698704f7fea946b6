// Command benchdiff guards the repo's performance baseline. It parses `go
// test -bench` text output, strips the -GOMAXPROCS suffix from benchmark
// names, and either records a JSON baseline or compares a fresh run against
// one, failing when any benchmark regressed beyond the threshold.
//
// Record the baseline (after a performance-relevant change, on an idle
// machine):
//
//	go test -run '^$' -bench . -benchmem ./... > bench.txt
//	go run ./scripts/benchdiff -write BENCH_baseline.json bench.txt
//
// Compare a run against it (CI's non-blocking delta job):
//
//	go run ./scripts/benchdiff -baseline BENCH_baseline.json bench.txt
//
// -zero REGEXP additionally asserts every matched benchmark reports exactly
// 0 allocs/op (blocking; no match is an error). With an empty -baseline the
// comparison is skipped, so -zero can gate allocation-free hot paths on a
// partial run without a baseline file:
//
//	go run ./scripts/benchdiff -baseline '' -zero 'BenchmarkKernel' bench.txt
//
// -match REGEXP restricts the baseline comparison to matching benchmark
// names (both sides), so a blocking CI step can gate just the kernel
// microbenchmarks while the full noisy suite stays advisory:
//
//	go run ./scripts/benchdiff -match '^BenchmarkKernel' -baseline base.json bench.txt
//
// A benchmark that appears on several input lines (a -count run, or
// rounds appended to one file) is taken at the median of each metric, so
// repeated rounds compare median to median.
//
// ns/op is compared within ±threshold (default 10%); allocs/op likewise but
// a difference of at most one allocation is always tolerated (tiny counts
// jitter with testing.B accounting). Benchmarks present in only one of the
// two sets are reported but do not fail the comparison, so partial runs
// (CI smoke) can still be diffed.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Entry is one benchmark's recorded performance.
type Entry struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
}

// Baseline is the persisted file format.
type Baseline struct {
	Note       string           `json:"note,omitempty"`
	Benchmarks map[string]Entry `json:"benchmarks"`
}

// benchLine matches e.g.
//
//	BenchmarkKernelEvents-8   100000   29.34 ns/op   0 B/op   0 allocs/op
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+(.*)$`)

// parse extracts entries from `go test -bench` output. A benchmark on
// several lines (a -count run, or rounds appended to one file) gets the
// median of each metric.
func parse(r io.Reader) (map[string]Entry, error) {
	runs := make(map[string][]Entry)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		var e Entry
		fields := strings.Fields(m[2])
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				e.NsPerOp = v
			case "B/op":
				e.BytesPerOp = v
			case "allocs/op":
				e.AllocsPerOp = v
			}
		}
		runs[m[1]] = append(runs[m[1]], e)
	}
	out := make(map[string]Entry, len(runs))
	for name, es := range runs {
		out[name] = Entry{
			NsPerOp:     median(es, func(e Entry) float64 { return e.NsPerOp }),
			AllocsPerOp: median(es, func(e Entry) float64 { return e.AllocsPerOp }),
			BytesPerOp:  median(es, func(e Entry) float64 { return e.BytesPerOp }),
		}
	}
	return out, sc.Err()
}

// median returns the median of metric over es: the middle value, or the
// mean of the middle two for an even count.
func median(es []Entry, metric func(Entry) float64) float64 {
	v := make([]float64, len(es))
	for i, e := range es {
		v[i] = metric(e)
	}
	sort.Float64s(v)
	n := len(v)
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}

func sortedNames(m map[string]Entry) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// exceeds reports whether got regressed or improved past frac relative to
// want (want == 0 tolerates only got == 0).
func exceeds(got, want, frac float64) bool {
	if want == 0 {
		return got != 0
	}
	return math.Abs(got-want)/want > frac
}

func main() {
	write := flag.String("write", "", "record the run as a new baseline at this path instead of comparing")
	baseline := flag.String("baseline", "BENCH_baseline.json", "baseline file to compare against")
	threshold := flag.Float64("threshold", 0.10, "allowed fractional drift per metric")
	note := flag.String("note", "", "note stored in the baseline (with -write)")
	zero := flag.String("zero", "", "regexp of benchmarks that must report 0 allocs/op (blocking)")
	match := flag.String("match", "", "regexp restricting the baseline comparison to matching benchmarks")
	flag.Parse()

	var matchRe *regexp.Regexp
	if *match != "" {
		re, err := regexp.Compile(*match)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchdiff: -match: %v\n", err)
			os.Exit(2)
		}
		matchRe = re
	}

	in := io.Reader(os.Stdin)
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchdiff:", err)
			os.Exit(2)
		}
		defer f.Close()
		in = f
	}
	got, err := parse(in)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	if len(got) == 0 {
		fmt.Fprintln(os.Stderr, "benchdiff: no benchmark lines in input")
		os.Exit(2)
	}

	if *write != "" {
		b := Baseline{Note: *note, Benchmarks: got}
		buf, _ := json.MarshalIndent(b, "", "  ")
		if err := os.WriteFile(*write, append(buf, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "benchdiff:", err)
			os.Exit(2)
		}
		fmt.Printf("benchdiff: wrote %d benchmarks to %s\n", len(got), *write)
		return
	}

	zeroFailed := 0
	if *zero != "" {
		re, err := regexp.Compile(*zero)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchdiff: -zero: %v\n", err)
			os.Exit(2)
		}
		matched := 0
		for _, name := range sortedNames(got) {
			if !re.MatchString(name) {
				continue
			}
			matched++
			if g := got[name]; g.AllocsPerOp != 0 {
				fmt.Printf("ALLOC    %-45s %.0f allocs/op, want 0\n", name, g.AllocsPerOp)
				zeroFailed++
			}
		}
		if matched == 0 {
			fmt.Fprintf(os.Stderr, "benchdiff: -zero %q matched no benchmarks\n", *zero)
			os.Exit(2)
		}
		fmt.Printf("benchdiff: %d zero-alloc benchmarks checked, %d violations\n", matched, zeroFailed)
	}
	if *baseline == "" {
		if zeroFailed > 0 {
			os.Exit(1)
		}
		return
	}

	buf, err := os.ReadFile(*baseline)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	var base Baseline
	if err := json.Unmarshal(buf, &base); err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: %s: %v\n", *baseline, err)
		os.Exit(2)
	}

	failed := 0
	compared := 0
	for _, name := range sortedNames(got) {
		if matchRe != nil && !matchRe.MatchString(name) {
			continue
		}
		g := got[name]
		b, ok := base.Benchmarks[name]
		if !ok {
			fmt.Printf("NEW      %-45s %12.1f ns/op %8.0f allocs/op\n", name, g.NsPerOp, g.AllocsPerOp)
			continue
		}
		compared++
		bad := exceeds(g.NsPerOp, b.NsPerOp, *threshold)
		// Alloc counts are near-deterministic; still tolerate ±1 for
		// testing.B bookkeeping noise at tiny counts.
		if exceeds(g.AllocsPerOp, b.AllocsPerOp, *threshold) && math.Abs(g.AllocsPerOp-b.AllocsPerOp) > 1 {
			bad = true
		}
		status := "ok"
		if bad {
			status = "FAIL"
			failed++
		}
		fmt.Printf("%-8s %-45s %12.1f -> %12.1f ns/op (%+.1f%%)  %.0f -> %.0f allocs/op\n",
			status, name, b.NsPerOp, g.NsPerOp, pct(g.NsPerOp, b.NsPerOp), b.AllocsPerOp, g.AllocsPerOp)
	}
	for _, name := range sortedNames(base.Benchmarks) {
		if matchRe != nil && !matchRe.MatchString(name) {
			continue
		}
		if _, ok := got[name]; !ok {
			fmt.Printf("MISSING  %-45s (in baseline, not in this run)\n", name)
		}
	}
	if matchRe != nil && compared == 0 {
		fmt.Fprintf(os.Stderr, "benchdiff: -match %q compared no benchmarks against the baseline\n", *match)
		os.Exit(2)
	}
	fmt.Printf("benchdiff: %d compared, %d beyond ±%.0f%%\n", compared, failed, *threshold*100)
	if failed > 0 || zeroFailed > 0 {
		os.Exit(1)
	}
}

func pct(got, want float64) float64 {
	if want == 0 {
		return 0
	}
	return (got - want) / want * 100
}
