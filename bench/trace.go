package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"time"

	"dualpar/internal/iosched"
	"dualpar/internal/obs"
	"dualpar/internal/obs/analyze"
)

// schedStats accumulates the host time spent inside the elevator.
type schedStats struct {
	adds, nexts, completes int64
	addNs, nextNs, doneNs  int64
}

// timedSched wraps the real elevator and times every call into it. It is
// installed through cluster.Config.NewScheduler, so the simulator runs
// unchanged; the simulation is single-threaded, so the counters need no
// locking.
type timedSched struct {
	iosched.Algorithm
	st *schedStats
}

func (t timedSched) Add(r *iosched.Request, now time.Duration) {
	t0 := time.Now()
	t.Algorithm.Add(r, now)
	t.st.addNs += int64(time.Since(t0))
	t.st.adds++
}

func (t timedSched) Next(now time.Duration, head int64) (*iosched.Request, time.Duration) {
	t0 := time.Now()
	r, idle := t.Algorithm.Next(now, head)
	t.st.nextNs += int64(time.Since(t0))
	t.st.nexts++
	return r, idle
}

func (t timedSched) NotifyComplete(r *iosched.Request, now time.Duration) {
	t0 := time.Now()
	t.Algorithm.NotifyComplete(r, now)
	t.st.doneNs += int64(time.Since(t0))
	t.st.completes++
}

// profiler writes one CPU profile per profiled region into dir.
type profiler struct {
	dir   string
	files []string
}

// start begins profiling a region; stop ends it once the profile is
// written (which takes up to 100 ms, so stop belongs outside any timing).
// A nil profiler profiles nothing.
func (p *profiler) start() (stop func() error, err error) {
	if p == nil {
		return func() error { return nil }, nil
	}
	path := filepath.Join(p.dir, fmt.Sprintf("cpu%03d.pprof", len(p.files)))
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	p.files = append(p.files, path)
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

// traced measures where host time goes. Half the budget times plain runs
// (the baseline for the overhead ratios); the other half runs with the
// timed elevator and a CPU profile of each Runner.Run. Set-up, the forced
// collections between runs and the checks after them stay out of the
// profile, and so does tracing: the obs share is what the instrumentation
// hooks cost with tracing off. One more run records spans, which the
// analyzer then attributes; both are timed. Every run is fingerprinted:
// tracing must not change a count.
func (c *child) traced(budget time.Duration) error {
	plain := c.timed(budget/2, buildOpts{})
	c.record(plain)

	if err := os.MkdirAll(scratchDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(scratchDir, "prof-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	c.prof = &profiler{dir: dir}
	st := &schedStats{}
	withSched := buildOpts{sched: func() iosched.Algorithm {
		return timedSched{Algorithm: iosched.NewCFQ(), st: st}
	}}
	traced := c.timed(budget/2, withSched)
	profiles := c.prof.files
	c.prof = nil

	col := obs.NewCollector()
	spanRun := c.iterate(buildOpts{obs: col})
	t0 := time.Now()
	rep := analyze.FromCollector(col, analyze.Options{})
	analyze.AttributeAll(col.Spans())
	analyzeMs := float64(time.Since(t0)) / 1e6
	if !rep.Conserved() {
		c.fail(fmt.Errorf("time attribution not conserved (max residual %v)", rep.MaxResidual))
	}

	byLayer, err := foldProfile(profiles)
	if err != nil {
		return err
	}
	var total float64
	for _, ns := range byLayer {
		total += ns
	}
	m := map[string]float64{}
	for _, l := range layers {
		m[l+".cpu_share"] = ratio(byLayer[l], total)
	}
	// Per-operation cost: a layer's profiled time per run over the
	// operations one run performs.
	runs := float64(len(traced))
	perOp := func(layer, count string) float64 { return ratio(byLayer[layer]/runs, c.ref[count]) }
	m["netsim.ns_per_msg"] = perOp("netsim", "netsim.messages")
	m["disk.ns_per_access"] = perOp("disk", "disk.accesses")
	m["memcache.ns_per_get"] = perOp("memcache", "memcache.gets")
	m["fs.ns_per_page"] = perOp("fs", "fs.pages")

	m["iosched.calls"] = float64(st.adds+st.nexts+st.completes) / runs
	m["iosched.add_ns"] = ratio(float64(st.addNs), float64(st.adds))
	m["iosched.next_ns"] = ratio(float64(st.nextNs), float64(st.nexts))
	m["iosched.complete_ns"] = ratio(float64(st.doneNs), float64(st.completes))
	m["iosched.merge_ratio"] = 1 - ratio(c.ref["iosched.served"], float64(st.adds)/runs)

	var gcs, pauseNs float64
	for _, s := range plain {
		gcs += float64(s.gcs)
		pauseNs += float64(s.gcPauseNs)
	}
	base := median(runsOf(plain))
	m["runtime.gc_per_run"] = gcs / float64(len(plain))
	m["runtime.gc_pause_ms"] = pauseNs / float64(len(plain)) / 1e6
	m["obs.overhead"] = ratio(spanRun.run, base)
	m["obs.spans"] = float64(len(col.Spans()))
	m["analyze.ms"] = analyzeMs
	m["traced.overhead"] = ratio(median(runsOf(traced)), base)

	for name, v := range c.ref {
		m[name] = v
	}
	for _, ph := range analyze.AllPhases {
		m["phase."+string(ph)+".share"] = ratio(float64(rep.Phases[ph]), float64(rep.TotalSpan))
	}
	c.res.Layers = m
	return nil
}

// runsOf returns the run times of samples.
func runsOf(samples []sample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = s.run
	}
	return out
}

// foldProfile merges CPU profiles and folds them into nanoseconds per layer,
// reading the stacks through `go tool pprof -traces`.
func foldProfile(paths []string) (map[string]float64, error) {
	var out, errOut bytes.Buffer
	cmd := exec.Command("go", append([]string{"tool", "pprof", "-traces"}, paths...)...)
	cmd.Stdout, cmd.Stderr = &out, &errOut
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go tool pprof -traces: %w: %s", err, errOut.String())
	}
	return foldTraces(&out)
}

// foldTraces folds `pprof -traces` text into nanoseconds per layer. Each
// sample goes to the leaf-most frame from a dualpar/internal package;
// samples without one go to runtime.gc when a background mark or sweep
// worker is on the stack and to runtime.sched otherwise.
func foldTraces(r io.Reader) (map[string]float64, error) {
	out := map[string]float64{}
	var stack []string
	var value float64
	flush := func() {
		if len(stack) > 0 {
			out[layerOf(stack)] += value
		}
		stack = stack[:0]
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	inSample := false
	// Frame names can hold spaces (generic shapes), so a frame is the whole
	// line less the " (inline)" marker.
	frame := func(s string) string { return strings.TrimSuffix(strings.TrimSpace(s), " (inline)") }
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "-----------+"):
			flush()
			inSample = true
		case !inSample || line == "" || strings.Contains(line, ":  "):
			// Header lines before the first sample, and sample labels.
		case len(stack) == 0:
			// The leaf line leads with the sample's value: "10ms   runtime.futex".
			v, fn, ok := strings.Cut(line, " ")
			if !ok {
				return nil, fmt.Errorf("pprof traces: malformed sample line %q", line)
			}
			d, err := time.ParseDuration(v)
			if err != nil {
				return nil, fmt.Errorf("pprof traces: sample value %q: %w", v, err)
			}
			value = float64(d)
			stack = append(stack, frame(fn))
		default:
			stack = append(stack, frame(line))
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	flush()
	return out, nil
}

// layerOf attributes one stack, leaf first.
func layerOf(stack []string) string {
	const prefix = "dualpar/internal/"
	for _, fn := range stack {
		rest, ok := strings.CutPrefix(fn, prefix)
		if !ok {
			continue
		}
		// Package path elements hold no dots, so the first dot ends the
		// package: "obs/analyze.Analyze" is package obs/analyze.
		pkg := rest
		if i := strings.IndexByte(rest, '.'); i >= 0 {
			pkg = rest[:i]
		}
		pkg = pkg[strings.LastIndexByte(pkg, '/')+1:]
		for _, l := range layers {
			if l == pkg {
				return l
			}
		}
		return "other"
	}
	for _, fn := range stack {
		if strings.Contains(fn, "gcBgMarkWorker") || strings.Contains(fn, "bgsweep") {
			return "runtime.gc"
		}
	}
	return "runtime.sched"
}

// sharesSum is the sum of the cpu shares in m (1 up to rounding).
func sharesSum(m map[string]float64) float64 {
	var s float64
	for _, l := range layers {
		s += m[l+".cpu_share"]
	}
	return s
}
