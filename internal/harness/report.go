package harness

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"sync"

	"dualpar/internal/cluster"
	"dualpar/internal/obs"
	"dualpar/internal/obs/analyze"
)

// RunReport pairs one run's deterministic identity with its attribution.
type RunReport struct {
	Key    string
	Report *analyze.Report
}

// Reports collects the time attribution of every run of the experiments
// it is attached to (Opts.Reports). Concurrent sweep cells share it safely.
type Reports struct {
	mu   sync.Mutex
	runs map[string]*analyze.Report
}

// reportKey names a run by the spec the harness can see — cluster seed plus
// spec: each program's identity, mode, placement, and start, or a tenant
// mix's spec — and a fingerprint of the recorded timeline itself. The spec
// alone is not unique (sweeps rerun the same program with different
// workload internals or core configs), so the span hash does the
// disambiguation: runs with equal keys recorded byte-identical timelines
// and therefore interchangeable reports, keeping Reports.Drain independent
// of which concurrent cell stored last.
func reportKey(cl *cluster.Cluster, spec string, col *obs.Collector) string {
	var b strings.Builder
	fmt.Fprintf(&b, "seed=%d%s", cl.Config().Seed, spec)
	h := fnv.New64a()
	for _, s := range col.Spans() {
		fmt.Fprintf(h, "%d/%s/%s/%d/%d;", s.ID, s.Stage, s.Track, s.Start, s.End)
	}
	fmt.Fprintf(&b, "#%016x", h.Sum64())
	return b.String()
}

// record analyzes one finished run's collector into the sink.
func (s *Reports) record(key string, col *obs.Collector) {
	rep := analyze.FromCollector(col, analyze.Options{})
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.runs == nil {
		s.runs = make(map[string]*analyze.Report)
	}
	s.runs[key] = rep
}

// Drain returns all accumulated run reports sorted by key and clears the
// sink. The order — and therefore any rendering of it — is independent of
// sweep parallelism.
func (s *Reports) Drain() []RunReport {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]RunReport, 0, len(s.runs))
	for k, r := range s.runs {
		out = append(out, RunReport{Key: k, Report: r})
	}
	s.runs = nil
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}
