package harness

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"dualpar/internal/metrics"
)

var update = flag.Bool("update", false, "rewrite golden files from this run")

// suiteGoldenPath holds `experiments -run all -quick -q` as printed: every
// number the quick suite reports, one segment per experiment in Experiments
// order. The tests that already run an experiment at quick settings check
// their result against its segment (checkSuite), so pinning the whole
// suite costs no simulation runs of its own. A change that moves a number
// on purpose re-records it with
// `go run ./cmd/experiments -run all -quick -q > internal/harness/testdata/all_quick.golden`.
const suiteGoldenPath = "testdata/all_quick.golden"

var suite struct {
	once     sync.Once
	segments map[string]string // experiment ID -> its printed text
	err      error

	mu      sync.Mutex
	checked map[string]bool
}

// suiteSegments splits the suite golden at its "== title ==" lines.
func suiteSegments() (map[string]string, error) {
	suite.once.Do(func() {
		raw, err := os.ReadFile(suiteGoldenPath)
		if err != nil {
			suite.err = err
			return
		}
		var parts []string
		for _, line := range strings.SplitAfter(string(raw), "\n") {
			if strings.HasPrefix(line, "== ") {
				parts = append(parts, "")
			}
			if len(parts) == 0 {
				suite.err = fmt.Errorf("%s does not start with a title line", suiteGoldenPath)
				return
			}
			parts[len(parts)-1] += line
		}
		if len(parts) != len(Experiments) {
			suite.err = fmt.Errorf("%s holds %d experiments, the registry %d", suiteGoldenPath, len(parts), len(Experiments))
			return
		}
		suite.segments = make(map[string]string, len(parts))
		for i, e := range Experiments {
			suite.segments[e.ID] = parts[i]
		}
	})
	return suite.segments, suite.err
}

// checkSuite compares a quick, default-seed result with its segment of the
// suite golden, byte for byte as the experiments command prints it.
func checkSuite(t *testing.T, res *Result) {
	t.Helper()
	segs, err := suiteSegments()
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	res.WriteText(&b)
	if want := segs[res.ID]; b.String() != want {
		t.Errorf("%s drifted from %s:\n--- want ---\n%s\n--- got ---\n%s", res.ID, suiteGoldenPath, want, b.String())
	}
	suite.mu.Lock()
	if suite.checked == nil {
		suite.checked = make(map[string]bool)
	}
	suite.checked[res.ID] = true
	suite.mu.Unlock()
}

// TestMain fails a full run (no -short, -run, -skip or -list) of this
// package that did not check every experiment against the suite golden, so
// an experiment cannot fall out of the golden unnoticed.
func TestMain(m *testing.M) {
	code := m.Run()
	full := !testing.Short()
	for _, name := range []string{"test.run", "test.skip", "test.list"} {
		if f := flag.Lookup(name); f != nil && f.Value.String() != "" {
			full = false
		}
	}
	if code == 0 && full {
		var missing []string
		for _, e := range Experiments {
			if !suite.checked[e.ID] {
				missing = append(missing, e.ID)
			}
		}
		if len(missing) > 0 {
			fmt.Fprintf(os.Stderr, "FAIL: no test checked %v against %s\n", missing, suiteGoldenPath)
			code = 1
		}
	}
	os.Exit(code)
}

// renderResult flattens a Result to the text the experiments command
// prints: title, notes, table, and charts. Byte equality of this rendering
// is the determinism contract the sweep pool guarantees.
func renderResult(res *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", res.Title)
	for _, n := range res.Notes {
		fmt.Fprintf(&b, "   note: %s\n", n)
	}
	if res.Table != nil {
		b.WriteString(res.Table.String())
	}
	for _, s := range res.Series {
		b.WriteString(metrics.ASCIIChart(s, 72, 8))
	}
	return b.String()
}

// paperIDs are the Experiments that reproduce the paper's own figures and
// tables.
var paperIDs = []string{"fig1a", "fig1b", "fig1cd", "fig3", "fig4", "fig5", "table2", "fig6", "fig7", "fig8", "table3"}

// TestAllParallelMatchesSerial is the determinism golden test for the
// sweep engine: every paper experiment run through Run with four workers
// must render byte-identically to the serial path. ~2x the quick suite, so
// skipped under -short.
func TestAllParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full quick suite twice; skipped with -short")
	}
	serial, err := Run(Opts{Quick: true, Parallel: 1, Log: io.Discard}, paperIDs)
	if err != nil {
		t.Fatal(err)
	}
	par, err := Run(Opts{Quick: true, Parallel: 4, Log: io.Discard}, paperIDs)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(par) {
		t.Fatalf("result counts differ: serial %d, parallel %d", len(serial), len(par))
	}
	for i := range serial {
		checkSuite(t, serial[i])
		if got, want := renderResult(par[i]), renderResult(serial[i]); got != want {
			t.Errorf("%s: parallel(4) output differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s",
				serial[i].ID, want, got)
		}
	}
}

// TestFaultSweepsParallelMatchSerial covers the experiments the paper
// suite does not include: stragglers and crash-stop availability, both
// sweeping cells with DNF-note side channels, the ablations, checkpoint
// and the storage engines. Multitenant has its own four-variant guard.
func TestFaultSweepsParallelMatchSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second fault sweeps; skipped with -short")
	}
	for _, d := range []struct {
		name string
		fn   func(Opts) *Result
	}{
		{"straggler", Straggler},
		{"availability", Availability},
		{"ablate-sched", AblateScheduler},
		{"ablate-t", AblateTImprovement},
		{"ablate-hole", AblateHoleThreshold},
		{"ablate-chunk", AblateChunkSize},
		{"ablate-origins", AblateDiskOrigins},
		{"ablate-cb", AblateCollectiveBuffer},
		{"ablate-ssd", AblateSSD},
		{"ablate-writepath", AblateWritePath},
		{"ablate-s2window", AblateStrategy2Window},
		{"ablate-servers", AblateServers},
		{"ablate-pipeline", AblatePipeline},
		{"checkpoint", Checkpoint},
		{"engines", Engines},
	} {
		t.Run(d.name, func(t *testing.T) {
			res := d.fn(Opts{Quick: true, Parallel: 1, Log: io.Discard})
			checkSuite(t, res)
			serial := renderResult(res)
			par := renderResult(d.fn(Opts{Quick: true, Parallel: 4, Log: io.Discard}))
			if par != serial {
				t.Errorf("parallel(4) output differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s",
					serial, par)
			}
		})
	}
}

// TestGoldenTables pins the quick-mode rendering of two representative
// experiments to checked-in golden files, so any change to simulated
// results (or to table formatting) must be made consciously via -update.
func TestGoldenTables(t *testing.T) {
	if testing.Short() {
		t.Skip("sub-second sims but not free; skipped with -short")
	}
	for _, d := range []struct {
		name string
		fn   func(Opts) *Result
	}{
		{"fig1a", Fig1a},
		{"fig3", Fig3},
	} {
		t.Run(d.name, func(t *testing.T) {
			got := renderResult(d.fn(Opts{Quick: true, Parallel: 1, Log: io.Discard}))
			path := filepath.Join("testdata", d.name+"_quick.golden")
			if *update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (regenerate with go test ./internal/harness -run Golden -update)", err)
			}
			if got != string(want) {
				t.Errorf("output drifted from %s:\n--- want ---\n%s\n--- got ---\n%s\n(if intended, rerun with -update)",
					path, want, got)
			}
		})
	}
}
