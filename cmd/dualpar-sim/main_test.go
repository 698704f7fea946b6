package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// runMainEnv, when set in the environment, makes the test binary run
// main instead of the tests, so each golden case runs the command in a
// fresh process exactly as a user would.
const runMainEnv = "DUALPAR_SIM_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// run executes the command with args and returns its stdout.
func run(t *testing.T, args ...string) []byte {
	t.Helper()
	out, stderr, code := runExit(t, args...)
	if code != 0 {
		t.Fatalf("dualpar-sim %s: exit status %d\n%s", strings.Join(args, " "), code, stderr)
	}
	return out
}

// runExit executes the command with args and returns its stdout, its
// stderr and its exit status.
func runExit(t *testing.T, args ...string) (stdout, stderr []byte, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var errBuf bytes.Buffer
	cmd.Stderr = &errBuf
	out, err := cmd.Output()
	if exit, ok := err.(*exec.ExitError); ok {
		return out, errBuf.Bytes(), exit.ExitCode()
	}
	if err != nil {
		t.Fatalf("dualpar-sim %s: %v", strings.Join(args, " "), err)
	}
	return out, errBuf.Bytes(), 0
}

// matchGolden fails unless got equals testdata/name byte for byte.
func matchGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	g, w := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < max(len(g), len(w)); i++ {
		if i >= len(g) || i >= len(w) || g[i] != w[i] {
			t.Errorf("output differs from %s at line %d:\ngot  %q\nwant %q",
				name, i+1, line(g, i), line(w, i))
			return
		}
	}
}

func line(lines []string, i int) string {
	if i < len(lines) {
		return lines[i]
	}
	return "<end of output>"
}

// TestCLIGoldens pins the single-run and multi-tenant output byte for
// byte: the tenant mode (open and closed loop), a checkpoint run, and
// -emclog (an empty table, and a noncontig run that switches, which pins
// per-slot ReqDist).
func TestCLIGoldens(t *testing.T) {
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"tenants_open.golden", []string{"-tenants", "tenants:4,arrival=poisson:12,policy=fair,grants=12,cache=64M,jobs=40,ranks=2,hot=0x6"}},
		{"tenants_closed_audit.golden", []string{"-tenants", "tenants:3,arrival=closed:2x5:10ms,policy=prio,grants=4,jobs=10,ranks=2", "-audit"}},
		{"checkpoint.golden", []string{"-workload", "checkpoint", "-procs", "16", "-mb", "16"}},
		{"emclog_none.golden", []string{"-workload", "demo", "-mode", "dualpar", "-procs", "16", "-mb", "8", "-emclog"}},
		{"emclog_switch.golden", []string{"-workload", "noncontig", "-mode", "dualpar", "-procs", "16", "-mb", "16", "-slot", "250ms", "-emclog"}},
	} {
		t.Run(strings.TrimSuffix(tc.golden, ".golden"), func(t *testing.T) {
			matchGolden(t, tc.golden, run(t, tc.args...))
		})
	}
}

// TestOverflowingMBRejected: a -mb whose byte count overflows int64 is bad
// input, rejected before the run, not a run of a negative size.
func TestOverflowingMBRejected(t *testing.T) {
	out, stderr, code := runExit(t, "-workload", "mpi-io-test", "-procs", "4", "-mb", "10000000000000")
	if code != 2 || len(out) != 0 || !bytes.Contains(stderr, []byte("-mb")) {
		t.Fatalf("exit %d, stdout %q, stderr %q; want exit 2, no stdout and a message naming -mb", code, out, stderr)
	}
}
