package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// resultsFile is what -json writes: every end-to-end metric's value per
// pass, per workload, so two invocations can be compared with their spread.
type resultsFile struct {
	Host      string                          `json:"host"`
	Seed      int64                           `json:"seed"`
	Seconds   float64                         `json:"seconds"`
	Workloads map[string]map[string][]float64 `json:"workloads"`
}

func readResults(path string) (resultsFile, error) {
	var f resultsFile
	b, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(b, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// compare prints, for each workload both files measured and each end-to-end
// metric, both sides' median and quartiles over their passes and B's change
// against A. A change beyond the metric's bound is a regression, unless
// either side's quartile spread exceeds the bound: then the metric is
// unresolved, or better when every pass of B beats every pass of A. It
// reports whether anything regressed.
func compare(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := readResults(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResults(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "A: %s (%s)\nB: %s (%s)\n\n", pathA, a.Host, pathB, b.Host)
	fmt.Fprintf(w, "%-17s %-12s %-31s %-31s %8s %6s  %s\n",
		"workload", "metric", "A median [q1 q3]", "B median [q1 q3]", "delta", "bound", "verdict")
	regressed := false
	for _, wl := range allWorkloads {
		ma, okA := a.Workloads[wl.name]
		mb, okB := b.Workloads[wl.name]
		if !okA || !okB {
			continue
		}
		for _, m := range e2eMetrics {
			xa, xb := ma[m.name], mb[m.name]
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			v := verdict(xa, xb, m.bound)
			if v == "REGRESSION" {
				regressed = true
			}
			fmt.Fprintf(w, "%-17s %-12s %-31s %-31s %+7.1f%% %5.0f%%  %s\n", wl.name, m.name,
				describe(xa), describe(xb), 100*ratio(median(xb)-median(xa), median(xa)), m.bound*100, v)
		}
	}
	return regressed, nil
}

// verdict judges B against A for a lower-is-better metric.
func verdict(a, b []float64, bound float64) string {
	if spread(a) > bound || spread(b) > bound {
		if sorted(b)[len(b)-1] < sorted(a)[0] {
			return "better"
		}
		return "unresolved"
	}
	switch delta := ratio(median(b)-median(a), median(a)); {
	case delta > bound:
		return "REGRESSION"
	case delta < -bound:
		return "better"
	}
	return "ok"
}

// describe prints a median with its quartiles.
func describe(xs []float64) string {
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g %.4g]", median(xs), q1, q3)
}
