package harness

import (
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestBaselineUnchangedWithoutBurst is the byte-identical guard for the
// burst-buffer tier: a configuration with no burst spec and no
// epoch-checkpoint workload must render exactly as it did at the commit
// before the tier landed (the golden was recorded at that HEAD). The
// availability experiment is the pinned probe because it exercises the
// code nearest the new write path — crash faults, replication, the
// integrity oracle, and the plain Checkpoint workload — without touching
// any burst feature. Verified serial, at -parallel 4, and with the audit
// oracles armed (PR 5's audit-changes-no-numbers contract). ~seconds of
// simulation, so skipped under -short like the other golden sweeps.
func TestBaselineUnchangedWithoutBurst(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the availability sweep four times; skipped with -short")
	}
	path := filepath.Join("testdata", "availability_quick.golden")
	got := renderResult(Availability(Opts{Quick: true, Parallel: 1, Log: io.Discard}))
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with go test ./internal/harness -run BaselineUnchanged -update)", err)
	}
	if got != string(want) {
		t.Fatalf("serial output drifted from the pre-burst baseline %s:\n--- want ---\n%s\n--- got ---\n%s",
			path, want, got)
	}
	for _, v := range []struct {
		name string
		run  func() string
	}{
		{"parallel4", func() string {
			return renderResult(Availability(Opts{Quick: true, Parallel: 4, Log: io.Discard}))
		}},
		{"audit", func() string {
			return renderResult(Availability(Opts{Quick: true, Parallel: 1, Log: io.Discard, Audit: true}))
		}},
		{"audit-parallel4", func() string {
			return renderResult(Availability(Opts{Quick: true, Parallel: 4, Log: io.Discard, Audit: true}))
		}},
	} {
		if out := v.run(); out != string(want) {
			t.Errorf("%s output drifted from the pre-burst baseline:\n--- want ---\n%s\n--- got ---\n%s",
				v.name, want, out)
		}
	}
}

// TestMultitenantDeterminismGolden is the same four-variant byte-identity
// guard for the multi-tenant sweep: the quick table must render exactly as
// the checked-in golden, serially, at -parallel 4, and with the audit
// oracles armed in both shapes. The cells inside the sweep spawn their own
// arrival and worker procs and the arbiter revokes grants mid-run, so this
// is the test that pins "revocation order is simulation state, not host
// scheduling".
func TestMultitenantDeterminismGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the multitenant sweep four times; skipped with -short")
	}
	path := filepath.Join("testdata", "multitenant_quick.golden")
	res := Multitenant(Opts{Quick: true, Parallel: 1, Log: io.Discard})
	checkSuite(t, res)
	got := renderResult(res)
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with go test ./internal/harness -run MultitenantDeterminism -update)", err)
	}
	if got != string(want) {
		t.Fatalf("serial output drifted from %s:\n--- want ---\n%s\n--- got ---\n%s",
			path, want, got)
	}
	for _, v := range []struct {
		name string
		run  func() string
	}{
		{"parallel4", func() string {
			return renderResult(Multitenant(Opts{Quick: true, Parallel: 4, Log: io.Discard}))
		}},
		{"audit", func() string {
			return renderResult(Multitenant(Opts{Quick: true, Parallel: 1, Log: io.Discard, Audit: true}))
		}},
		{"audit-parallel4", func() string {
			return renderResult(Multitenant(Opts{Quick: true, Parallel: 4, Log: io.Discard, Audit: true}))
		}},
	} {
		if out := v.run(); out != string(want) {
			t.Errorf("%s output drifted from the golden:\n--- want ---\n%s\n--- got ---\n%s",
				v.name, want, out)
		}
	}
}
