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
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("dualpar-sim %s: %v\n%s", strings.Join(args, " "), err, stderr.Bytes())
	}
	return out
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
