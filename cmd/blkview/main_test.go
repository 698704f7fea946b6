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
const runMainEnv = "BLKVIEW_TEST_RUN_MAIN"

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
		t.Fatalf("blkview %s: %v\n%s", strings.Join(args, " "), err, stderr.Bytes())
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

// TestCLIGoldens pins the terminal plot and the -csv dump of two
// side-by-side noncontig instances byte for byte.
func TestCLIGoldens(t *testing.T) {
	args := []string{"-workload", "noncontig", "-instances", "2", "-mb", "8"}
	matchGolden(t, "noncontig.golden", run(t, args...))
	csv := filepath.Join(t.TempDir(), "blk.csv")
	run(t, append(args, "-csv", csv)...)
	got, err := os.ReadFile(csv)
	if err != nil {
		t.Fatal(err)
	}
	matchGolden(t, "noncontig_csv.golden", got)
}
