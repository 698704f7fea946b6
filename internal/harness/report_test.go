package harness

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dualpar/internal/tenant"
)

// renderReports renders drained reports the way cmd/experiments prints
// them, failing the test on an empty drain or a conservation violation.
func renderReports(t *testing.T, reports []RunReport) string {
	t.Helper()
	if len(reports) == 0 {
		t.Fatal("no reports drained")
	}
	var b strings.Builder
	for _, rr := range reports {
		if !rr.Report.Conserved() {
			t.Errorf("run %s: attribution not conserved (residual %v)", rr.Key, rr.Report.MaxResidual)
		}
		fmt.Fprintf(&b, "== report: %s ==\n", rr.Key)
		if err := rr.Report.RenderText(&b); err != nil {
			t.Fatal(err)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// fig1aReports runs the quick fig1a sweep with run-level attribution armed
// and renders the drained reports.
func fig1aReports(t *testing.T, parallel int) string {
	t.Helper()
	sink := &Reports{}
	Fig1a(Opts{Quick: true, Seed: 1, Parallel: parallel, Log: io.Discard, Reports: sink})
	return renderReports(t, sink.Drain())
}

// readGolden returns a testdata golden file's content.
func readGolden(t *testing.T, name string) string {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return string(want)
}

// TestReportGoldenAndParallel pins the quick fig1a attribution reports to a
// golden file and demands byte-identical rendering from a four-worker sweep:
// the report pipeline inherits the sweep engine's determinism contract.
func TestReportGoldenAndParallel(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the fig1a quick sweep twice with tracing on; skipped with -short")
	}
	serial := fig1aReports(t, 1)
	par := fig1aReports(t, 4)
	if serial != par {
		t.Errorf("parallel(4) reports differ from serial:\n--- serial ---\n%s\n--- parallel ---\n%s", serial, par)
	}
	path := filepath.Join("testdata", "fig1a_report_quick.golden")
	if *update {
		if err := os.WriteFile(path, []byte(serial), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with go test ./internal/harness -run ReportGolden -update)", err)
	}
	if serial != string(want) {
		t.Errorf("reports drifted from %s:\n--- want ---\n%s\n--- got ---\n%s\n(if intended, rerun with -update)",
			path, want, serial)
	}
}

// TestOptsVariantsConcurrent runs the quick fig1a sweep three ways at once
// — plain, audited, and reporting — in one pool: every knob lives on the
// Opts value a sweep carries, so variants do not leak into each other. All
// three tables must match the golden, and the reporting variant's sink must
// hold exactly the report golden's runs.
func TestOptsVariantsConcurrent(t *testing.T) {
	sink := &Reports{}
	variants := []Opts{
		{Quick: true, Parallel: 2, Log: io.Discard},
		{Quick: true, Parallel: 2, Log: io.Discard, Audit: true},
		{Quick: true, Parallel: 2, Log: io.Discard, Reports: sink},
	}
	tables, err := runCells(3, cellKeys("variant", len(variants)), func(i int) string {
		return renderResult(Fig1a(variants[i]))
	})
	if err != nil {
		t.Fatal(err)
	}
	want := readGolden(t, "fig1a_quick.golden")
	for i, got := range tables {
		if got != want {
			t.Errorf("variant %d table drifted from fig1a_quick.golden:\n--- want ---\n%s\n--- got ---\n%s", i, want, got)
		}
	}
	if got, want := renderReports(t, sink.Drain()), readGolden(t, "fig1a_report_quick.golden"); got != want {
		t.Errorf("reports drifted from fig1a_report_quick.golden:\n--- want ---\n%s\n--- got ---\n%s", want, got)
	}
}

// TestAblationRunsReachReportsAndAudit: the ablation cells run through
// Opts.executeOn like every other experiment, so Audit arms their oracles
// and Reports receives every run (3 schedulers x 2 modes). cfq and deadline
// serve this workload identically, span for span (equal table rows), so
// their runs share a report key and the sink keeps one report per mode for
// the pair: 4 distinct reports.
func TestAblationRunsReachReportsAndAudit(t *testing.T) {
	sink := &Reports{}
	AblateScheduler(Opts{Quick: true, Audit: true, Reports: sink, Log: io.Discard})
	if got := len(sink.Drain()); got != 4 {
		t.Fatalf("ablate-sched drained %d reports, want 4 (6 runs, cfq = deadline)", got)
	}
}

// TestTenantMixReachesReports: a multitenant cell goes through the same run
// phase as every other experiment, so Reports receives its run, keyed by
// the tenant spec.
func TestTenantMixReachesReports(t *testing.T) {
	tc, err := tenant.ParseSpec("tenants:3,arrival=closed:2x5:10ms,policy=prio,grants=4,jobs=10,ranks=2")
	if err != nil {
		t.Fatal(err)
	}
	tc.Seed = 1
	sink := &Reports{}
	Opts{Seed: 1, Quick: true, Reports: sink}.runTenantMix(tc)
	reports := sink.Drain()
	if len(reports) != 1 || !strings.Contains(reports[0].Key, tc.String()) {
		t.Fatalf("drained %d reports, want one keyed by %q", len(reports), tc.String())
	}
	renderReports(t, reports)
}
