package main

import "dualpar/internal/obs/analyze"

// metricDef names one reported metric. Bound is the share of the baseline
// median by which an end-to-end metric may worsen before a change counts
// as a regression; per-layer metrics have none. BENCHMARK.json lists the
// same names, units and bounds (bench_test.go keeps them in step).
type metricDef struct {
	name  string
	unit  string
	bound float64
}

// e2eMetrics are the end-to-end metrics: host cost of running one
// simulation, all lower-is-better, measured with tracing off. On a shared
// 2-vCPU host, ten invocations of one workload (seeds 1-10) spread by up
// to 17% in the timings (interquartile range over median; the host's
// speed drifts over minutes), 5.3% in peak memory and 2.5% in allocation.
// The bounds sit above those spreads; set-up time, the smallest timing,
// gets the widest.
var e2eMetrics = []metricDef{
	{"run_s", "s", 0.24},
	{"run_s.p80", "s", 0.24},
	{"setup_s", "s", 0.25},
	{"cpu_s", "s", 0.24},
	{"alloc_MB", "MB", 0.10},
	{"allocs_k", "k_objects", 0.10},
	{"peak_rss_MB", "MB", 0.20},
}

// layers are the CPU-profile buckets: one per simulator package a sample's
// leaf-most repository frame can fall in, plus the Go runtime's collector
// and scheduler for samples with no repository frame, and "other" for the
// remaining repository packages (check, cluster, harness, metrics).
var layers = []string{
	"sim", "runtime.sched", "runtime.gc", "netsim", "iosched", "disk", "fs",
	"pfs", "memcache", "mpiio", "mpi", "datatype", "ext", "core", "burst",
	"tenant", "fault", "workloads", "obs", "analyze", "other",
}

// perLayerMetrics lists what a traced run reports, in order: host-time
// shares and per-operation costs from the CPU profile, the scheduler
// wrapper's timings, GC and tracing costs, then the run's model counts
// and the analyzer's phase shares (both virtual time, so exact).
func perLayerMetrics() []metricDef {
	var defs []metricDef
	for _, l := range layers {
		defs = append(defs, metricDef{name: l + ".cpu_share", unit: "share"})
	}
	defs = append(defs,
		metricDef{name: "netsim.ns_per_msg", unit: "ns"},
		metricDef{name: "disk.ns_per_access", unit: "ns"},
		metricDef{name: "memcache.ns_per_get", unit: "ns"},
		metricDef{name: "fs.ns_per_page", unit: "ns"},
		metricDef{name: "iosched.calls", unit: "count"},
		metricDef{name: "iosched.add_ns", unit: "ns"},
		metricDef{name: "iosched.next_ns", unit: "ns"},
		metricDef{name: "iosched.complete_ns", unit: "ns"},
		metricDef{name: "iosched.merge_ratio", unit: "ratio"},
		metricDef{name: "runtime.gc_per_run", unit: "count"},
		metricDef{name: "runtime.gc_pause_ms", unit: "ms"},
		metricDef{name: "obs.overhead", unit: "x"},
		metricDef{name: "obs.spans", unit: "count"},
		metricDef{name: "analyze.ms", unit: "ms"},
		metricDef{name: "traced.overhead", unit: "x"},
	)
	for _, cu := range countUnits {
		defs = append(defs, metricDef{name: cu.name, unit: cu.unit})
	}
	for _, ph := range analyze.AllPhases {
		defs = append(defs, metricDef{name: "phase." + string(ph) + ".share", unit: "share"})
	}
	return defs
}
