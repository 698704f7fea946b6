// Command bench is the repository benchmark. It times the simulator's host
// cost on five workloads, checks every run's output against a fingerprint,
// and with -trace 1 breaks the host time down by layer.
//
// The load is a closed loop: one simulation at a time. The parent process
// re-executes itself once per pass and workload; passes are interleaved so
// host drift spreads over every workload. Each child warms up, then times
// runs until its share of the budget is spent. See README.md.
//
// Usage, from this directory (bash run.sh does the same from a checkout,
// keeping every build output inside it):
//
//	go run . [-workload NAME] [-seed N] [-seconds S] [-trace 0|1] [-json FILE]
//	go run . -compare A.json B.json
//	go run . -update
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

const (
	// passes is how many children measure each workload.
	passes = 4
	// scratchDir takes the CPU profiles of traced runs. The benchmark runs
	// from its own directory, so this is .bench_build at the repository
	// root, where run.sh also keeps the build.
	scratchDir = "../.bench_build"
)

func main() {
	workloadName := flag.String("workload", "", "run only this workload (default all) and print its result as one JSON line last")
	seed := flag.Int64("seed", 1, "workload seed: the simulation seed of every run")
	seconds := flag.Float64("seconds", 16, "wall seconds of timed runs per workload")
	trace := flag.Int("trace", 0, "1 = traced run: per-layer metrics instead of end-to-end ones")
	jsonOut := flag.String("json", "", "also write per-pass end-to-end values to this file, for -compare")
	compareMode := flag.Bool("compare", false, "compare two -json files: -compare A.json B.json")
	update := flag.Bool("update", false, "rewrite "+goldenPath+" from runs at the golden seeds")
	childMode := flag.Bool("child", false, "internal: measure one workload in this process")
	flag.Parse()

	switch {
	case *compareMode:
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: -compare A.json B.json")
			os.Exit(2)
		}
		regressed, err := compare(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		if regressed {
			os.Exit(1)
		}
		return
	case *update:
		if err := updateGoldens(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	if flag.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	ws := allWorkloads
	if *workloadName != "" {
		w, err := workloadByName(*workloadName)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		ws = []workload{w}
	}
	budget := time.Duration(*seconds * float64(time.Second))
	if *childMode {
		res, err := runChild(ws[0], *seed, budget, *trace == 1)
		if err == nil {
			err = json.NewEncoder(os.Stdout).Encode(res)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	fmt.Println(hostInfo())
	var res result
	var err error
	if *trace == 1 {
		res, err = measureTraced(ws, *seed, budget)
	} else {
		res, err = measure(ws, *seed, budget, *jsonOut)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *workloadName != "" {
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Println(string(line))
	}
	if !res.Correct {
		os.Exit(1)
	}
}

// result summarizes an invocation; for a single workload it is printed as
// the last line. Metrics hold the last workload measured.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// hostInfo names what the numbers were measured on.
func hostInfo() string {
	model := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	return fmt.Sprintf("host: nproc=%d GOMAXPROCS=%d %s cpu=%q",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), model)
}

// spawn runs one child process and decodes what it measured.
func spawn(w workload, seed int64, budget time.Duration, trace bool) (childResult, error) {
	self, err := os.Executable()
	if err != nil {
		return childResult{}, err
	}
	traceArg := "0"
	if trace {
		traceArg = "1"
	}
	cmd := exec.Command(self, "-child", "-workload", w.name,
		"-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(budget.Seconds(), 'f', -1, 64),
		"-trace", traceArg)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return childResult{}, fmt.Errorf("%s child: %w", w.name, err)
	}
	var res childResult
	if err := json.Unmarshal(out, &res); err != nil {
		return childResult{}, fmt.Errorf("%s child output: %w", w.name, err)
	}
	return res, nil
}

// tally adds a child's run counts to the summary and prints its failures.
func tally(r *result, c childResult) {
	r.Attempted += c.Attempted
	r.Failed += c.Failed
	r.Correct = r.Failed == 0
	for _, e := range c.Errors {
		fmt.Printf("FAIL %s: %s\n", c.Workload, e)
	}
}

// measure runs the end-to-end benchmark: passes of one child per workload.
func measure(ws []workload, seed int64, budget time.Duration, jsonOut string) (result, error) {
	fmt.Printf("load: closed loop, one simulation at a time; %d passes x %d workloads, %g s of timed runs per workload, seed %d\n",
		passes, len(ws), budget.Seconds(), seed)
	byWorkload := make([][]childResult, len(ws))
	for pass := 0; pass < passes; pass++ {
		for i, w := range ws {
			c, err := spawn(w, seed, budget/passes, false)
			if err != nil {
				return result{}, err
			}
			byWorkload[i] = append(byWorkload[i], c)
		}
	}

	res := result{Correct: true}
	file := resultsFile{Host: hostInfo(), Seed: seed, Seconds: budget.Seconds(), Workloads: map[string]map[string][]float64{}}
	fmt.Printf("\n%-17s %-12s %12s %-9s %4s %6s  %s\n", "workload", "metric", "value", "unit", "n", "bound", "per pass")
	for i, w := range ws {
		cs := byWorkload[i]
		all := e2eValues(cs)
		perPass := map[string][]float64{}
		n := 0
		for _, c := range cs {
			tally(&res, c)
			// Each child checks its runs against one fingerprint; across
			// processes they must agree too.
			if d := cs[0].Counts.diff(c.Counts); d != "" {
				res.Failed++
				res.Correct = false
				fmt.Printf("FAIL %s: passes disagree: %s\n", w.name, d)
			}
			n += len(c.Run)
			for name, v := range e2eValues([]childResult{c}) {
				perPass[name] = append(perPass[name], v)
			}
		}
		file.Workloads[w.name] = perPass
		res.Metrics = map[string]metricValue{}
		for _, m := range e2eMetrics {
			fmt.Printf("%-17s %-12s %12.6g %-9s %4d %5.0f%%  %s\n", w.name, m.name, all[m.name], m.unit,
				n, m.bound*100, formatValues(perPass[m.name]))
			res.Metrics[m.name] = metricValue{Value: all[m.name], Unit: m.unit}
		}
		flagDrift(w.name, perPass["run_s"])
	}
	fmt.Printf("\nruns: %d attempted, %d failed\n", res.Attempted, res.Failed)
	if jsonOut != "" {
		b, err := json.MarshalIndent(file, "", "  ")
		if err != nil {
			return result{}, err
		}
		if err := os.WriteFile(jsonOut, append(b, '\n'), 0o644); err != nil {
			return result{}, err
		}
	}
	return res, nil
}

// e2eValues computes the end-to-end metrics over the children's runs. The
// tail is the 80th percentile: at the default budget a workload gets 60-80
// timed runs, so at least ten samples lie beyond it.
func e2eValues(cs []childResult) map[string]float64 {
	var run, setup, cpu, rss []float64
	var alloc, mallocs float64
	for _, c := range cs {
		run = append(run, c.Run...)
		setup = append(setup, c.Setup...)
		cpu = append(cpu, c.CPU...)
		rss = append(rss, float64(c.MaxRSSKB)*1024/1e6)
		alloc += float64(c.AllocBytes)
		mallocs += float64(c.Mallocs)
	}
	n := float64(len(run))
	return map[string]float64{
		"run_s":       median(run),
		"run_s.p80":   percentile(run, 80),
		"setup_s":     median(setup),
		"cpu_s":       median(cpu),
		"alloc_MB":    ratio(alloc, n) / 1e6,
		"allocs_k":    ratio(mallocs, n) / 1e3,
		"peak_rss_MB": median(rss),
	}
}

// flagDrift reports a pass whose run_s median is further than the bound
// from the median of the other passes: host noise large enough to matter.
func flagDrift(workload string, passMedians []float64) {
	bound := e2eMetrics[0].bound
	for i, v := range passMedians {
		others := append(append([]float64(nil), passMedians[:i]...), passMedians[i+1:]...)
		m := median(others)
		if off := ratio(v-m, m); off > bound || off < -bound {
			fmt.Printf("DRIFT %s: pass %d run_s %.4g s is %+.1f%% off the other passes (%.4g s), beyond the %.0f%% bound\n",
				workload, i+1, v, off*100, m, bound*100)
		}
	}
}

// formatValues prints per-pass values compactly.
func formatValues(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'g', 4, 64)
	}
	return strings.Join(parts, " ")
}

// measureTraced runs one traced child per workload and prints its
// per-layer metrics.
func measureTraced(ws []workload, seed int64, budget time.Duration) (result, error) {
	fmt.Printf("traced: one child per workload, %g s of timed runs each (half plain, half profiled), seed %d\n",
		budget.Seconds(), seed)
	res := result{Correct: true}
	defs := perLayerMetrics()
	for _, w := range ws {
		c, err := spawn(w, seed, budget, true)
		if err != nil {
			return result{}, err
		}
		tally(&res, c)
		res.Metrics = map[string]metricValue{}
		fmt.Printf("\n%s (cpu shares sum to %.6f)\n", w.name, sharesSum(c.Layers))
		for _, d := range defs {
			v := c.Layers[d.name]
			fmt.Printf("  %-26s %14.6g %s\n", d.name, v, d.unit)
			res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		}
	}
	fmt.Printf("\nruns: %d attempted, %d failed\n", res.Attempted, res.Failed)
	return res, nil
}
