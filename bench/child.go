package main

import (
	"fmt"
	"runtime"
	"syscall"
	"time"
)

const (
	// warmups untimed runs start every child: they fill the allocator's and
	// runtime's caches, and the first one runs with the core invariant
	// oracles armed.
	warmups = 3
	// minRuns is the fewest timed runs a child makes, however short its
	// budget.
	minRuns = 3
	// maxErrors bounds the failure messages a child reports.
	maxErrors = 5
)

// childResult is what one child process measured. It travels to the parent
// as JSON on the child's standard output.
type childResult struct {
	Workload string `json:"workload"`
	// Per timed run: wall seconds of set-up and of Runner.Run, and process
	// CPU seconds (user+sys, every thread) over both.
	Setup []float64 `json:"setup_s"`
	Run   []float64 `json:"run_s"`
	CPU   []float64 `json:"cpu_s"`
	// Heap allocation over the timed runs, set-up included.
	AllocBytes uint64 `json:"alloc_bytes"`
	Mallocs    uint64 `json:"mallocs"`
	// MaxRSSKB is the child's peak resident set after the warm-ups.
	MaxRSSKB  int64    `json:"max_rss_kb"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Errors    []string `json:"errors,omitempty"`
	// Counts is the fingerprint every run was checked against.
	Counts counts `json:"counts"`
	// Layers holds the per-layer metrics (traced children only).
	Layers map[string]float64 `json:"layers,omitempty"`
}

// sample is one timed run.
type sample struct {
	setup, run, cpu float64
	alloc, mallocs  uint64
	gcs             uint32 // collections the run triggered itself
	gcPauseNs       uint64
}

// child runs one workload in this process.
type child struct {
	w    workload
	seed int64
	ref  counts    // expected fingerprint: the golden, else the first run's
	prof *profiler // when set, a CPU profile covers each Runner.Run
	res  childResult
}

// runChild measures one workload: warm-ups, then timed runs for budget of
// wall time (split between plain and traced runs when trace is set).
func runChild(w workload, seed int64, budget time.Duration, trace bool) (childResult, error) {
	g, err := loadGoldens()
	if err != nil {
		return childResult{}, err
	}
	c := &child{w: w, seed: seed, ref: g.lookup(w.name, seed)}
	c.res.Workload = w.name
	for i := 0; i < warmups; i++ {
		c.iterate(buildOpts{audit: i == 0})
	}
	// Peak memory is read after the fixed number of warm-ups: a finished
	// simulation's procs stay parked (the kernel has no shutdown), so each
	// further run adds to the resident set and a later reading would grow
	// with however many runs the time budget allowed.
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return childResult{}, fmt.Errorf("getrusage: %w", err)
	}
	c.res.MaxRSSKB = ru.Maxrss
	if trace {
		if err := c.traced(budget); err != nil {
			return childResult{}, err
		}
	} else {
		c.record(c.timed(budget, buildOpts{}))
	}
	c.res.Counts = c.ref
	return c.res, nil
}

// timed runs iterations until budget has passed (at least minRuns).
func (c *child) timed(budget time.Duration, o buildOpts) []sample {
	var out []sample
	deadline := time.Now().Add(budget)
	for len(out) < minRuns || time.Now().Before(deadline) {
		out = append(out, c.iterate(o))
	}
	return out
}

// record adds timed samples to the result.
func (c *child) record(samples []sample) {
	for _, s := range samples {
		c.res.Setup = append(c.res.Setup, s.setup)
		c.res.Run = append(c.res.Run, s.run)
		c.res.CPU = append(c.res.CPU, s.cpu)
		c.res.AllocBytes += s.alloc
		c.res.Mallocs += s.mallocs
	}
}

// iterate builds, runs and checks one simulation. The collection forced
// before it keeps the previous run's garbage off its clock; set-up is
// cluster.New, NewRunner and Add (and the tenant arrival proc).
func (c *child) iterate(o buildOpts) sample {
	o.seed = c.seed
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuSeconds()
	t0 := time.Now()
	s := c.w.build(o)
	t1 := time.Now()
	stop, perr := c.prof.start()
	err := s.run()
	t2 := time.Now()
	cpu1 := cpuSeconds()
	if perr == nil {
		perr = stop()
	}
	runtime.ReadMemStats(&m1)
	if err == nil {
		err = perr
	}
	c.check(s, err)
	return sample{
		setup:     t1.Sub(t0).Seconds(),
		run:       t2.Sub(t1).Seconds(),
		cpu:       cpu1 - cpu0,
		alloc:     m1.TotalAlloc - m0.TotalAlloc,
		mallocs:   m1.Mallocs - m0.Mallocs,
		gcs:       (m1.NumGC - m0.NumGC) - (m1.NumForcedGC - m0.NumForcedGC),
		gcPauseNs: m1.PauseTotalNs - m0.PauseTotalNs,
	}
}

// check counts the run as attempted and, if any check fails, as failed: the
// run itself, the integrity re-read, and the fingerprint against the golden
// (or, for a seed without one, against the child's first run).
func (c *child) check(s *simRun, err error) {
	c.res.Attempted++
	got := fingerprint(s)
	if err == nil {
		err = s.verifyIntegrity()
	}
	if err == nil {
		if c.ref == nil {
			c.ref = got
		} else if d := c.ref.diff(got); d != "" {
			err = fmt.Errorf("fingerprint differs: %s", d)
		}
	}
	if err != nil {
		c.fail(err)
	}
}

// fail records a failed run.
func (c *child) fail(err error) {
	c.res.Failed++
	if len(c.res.Errors) < maxErrors {
		c.res.Errors = append(c.res.Errors, err.Error())
	}
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}
