package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"

	"dualpar/internal/iosched"
	"dualpar/internal/obs"
	"dualpar/internal/obs/analyze"
)

// Every workload at seed 1 must reproduce its checked-in fingerprint and
// pass its checks; a change to the simulator's output fails here before
// the benchmark's timed runs do.
func TestWorkloadsMatchGoldens(t *testing.T) {
	g, err := loadGoldens()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range allWorkloads {
		want := g.lookup(w.name, 1)
		if want == nil {
			t.Fatalf("%s: no golden for seed 1 (run -update)", w.name)
		}
		s := w.build(buildOpts{seed: 1})
		if err := s.run(); err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if d := want.diff(fingerprint(s)); d != "" {
			t.Errorf("%s: %s", w.name, d)
		}
		if err := s.verifyIntegrity(); err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
	}
}

// The traced run's instruments (the timed elevator, the span collector)
// must leave every model count unchanged, and the analyzer must conserve
// time exactly on the spans it records.
func TestTracingKeepsFingerprint(t *testing.T) {
	g, err := loadGoldens()
	if err != nil {
		t.Fatal(err)
	}
	w, err := workloadByName("dd-noncontig")
	if err != nil {
		t.Fatal(err)
	}
	want := g.lookup(w.name, 1)
	st := &schedStats{}
	col := obs.NewCollector()
	s := w.build(buildOpts{seed: 1, obs: col, sched: func() iosched.Algorithm {
		return timedSched{Algorithm: iosched.NewCFQ(), st: st}
	}})
	if err := s.run(); err != nil {
		t.Fatal(err)
	}
	if d := want.diff(fingerprint(s)); d != "" {
		t.Errorf("traced run: %s", d)
	}
	if st.adds == 0 || st.nexts == 0 || st.completes == 0 {
		t.Errorf("elevator wrapper saw %d adds, %d nexts, %d completes", st.adds, st.nexts, st.completes)
	}
	if float64(st.adds) < want["iosched.served"] {
		t.Errorf("%d adds but %v requests served", st.adds, want["iosched.served"])
	}
	if len(col.Spans()) == 0 {
		t.Error("collector recorded no spans")
	}
	if rep := analyze.FromCollector(col, analyze.Options{}); !rep.Conserved() {
		t.Errorf("attribution residual %v", rep.MaxResidual)
	}
}

// foldTraces on a `go tool pprof -traces` excerpt: each sample goes to its
// leaf-most repository frame (inlined frames count), samples without one
// split between the collector and the scheduler, and the shares sum to 1.
func TestFoldTraces(t *testing.T) {
	f, err := os.Open("testdata/traces.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := foldTraces(f)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"sim":           30e6,
		"analyze":       20e6,
		"core":          10e6,
		"other":         10e6,
		"runtime.gc":    30e6,
		"runtime.sched": 10e6,
	}
	var total float64
	for l, ns := range got {
		if ns != want[l] {
			t.Errorf("%s: got %v ns, want %v", l, ns, want[l])
		}
		total += ns
	}
	if len(got) != len(want) {
		t.Errorf("got layers %v, want %v", got, want)
	}
	shares := map[string]float64{}
	for _, l := range layers {
		shares[l+".cpu_share"] = got[l] / total
	}
	if s := sharesSum(shares); math.Abs(s-1) > 1e-9 {
		t.Errorf("shares sum to %v", s)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25];
	// statistics.quantiles([3, 1, 2, 4], n=4) == [1.25, 2.5, 3.75].
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 2, 4}, 1.25, 3.75},
	} {
		if q1, q3 := quartiles(tc.xs); q1 != tc.q1 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
}

func TestVerdict(t *testing.T) {
	a := []float64{1.00, 1.01, 0.99, 1.00}
	for _, tc := range []struct {
		b    []float64
		want string
	}{
		{[]float64{1.02, 1.03, 1.01, 1.02}, "ok"},
		{[]float64{1.20, 1.21, 1.19, 1.20}, "REGRESSION"},
		{[]float64{0.80, 0.81, 0.79, 0.80}, "better"},
		{[]float64{0.8, 1.6, 0.9, 1.5}, "unresolved"},
	} {
		if got := verdict(a, tc.b, 0.10); got != tc.want {
			t.Errorf("verdict(%v) = %s, want %s", tc.b, got, tc.want)
		}
	}
}

// BENCHMARK.json must list exactly the workloads and metrics the benchmark
// reports, with the same units and bounds, and give set-up time the
// largest bound.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var spec struct {
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(allWorkloads) {
		t.Fatalf("%d workloads listed, %d defined", len(spec.Workloads), len(allWorkloads))
	}
	for i, w := range allWorkloads {
		if got := spec.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: listed %q (%q), defined %q (%q)", i, got.Name, got.Why, w.name, w.why)
		}
	}
	check := func(kind string, listed []metric, defs []metricDef, bounded bool) {
		if len(listed) != len(defs) {
			t.Fatalf("%s: %d listed, %d reported", kind, len(listed), len(defs))
		}
		for i, d := range defs {
			m := listed[i]
			if m.Name != d.name || m.Unit != d.unit || (m.Better != "lower" && m.Better != "higher") ||
				(m.Bound != nil) != bounded || (bounded && *m.Bound != d.bound) {
				t.Errorf("%s %d: listed %+v, reported %+v", kind, i, m, d)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, e2eMetrics, true)
	check("per_layer", spec.PerLayer, perLayerMetrics(), false)
	var setup metricDef
	for _, d := range e2eMetrics {
		if d.name == "setup_s" {
			setup = d
		}
	}
	for _, d := range e2eMetrics {
		if d.bound > setup.bound {
			t.Errorf("%s: bound %v above setup_s's %v", d.name, d.bound, setup.bound)
		}
	}
}
