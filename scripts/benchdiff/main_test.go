package main

import (
	"strings"
	"testing"
)

// TestParseTakesMedianOfRepeats: a benchmark on several lines is the
// median of each metric, not whichever line came last.
func TestParseTakesMedianOfRepeats(t *testing.T) {
	in := `goos: linux
BenchmarkKernelEvents-2   	5000000	        30.0 ns/op	       0 B/op	       0 allocs/op
BenchmarkKernelEvents-2   	5000000	        90.0 ns/op	       0 B/op	       0 allocs/op
BenchmarkKernelEvents-2   	5000000	        20.0 ns/op	       0 B/op	       0 allocs/op
BenchmarkKernelNetSend-2  	5000000	        10.0 ns/op	       8 B/op	       1 allocs/op
BenchmarkKernelNetSend-2  	5000000	        14.0 ns/op	      16 B/op	       1 allocs/op
PASS
`
	got, err := parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]Entry{
		"BenchmarkKernelEvents":  {NsPerOp: 30},
		"BenchmarkKernelNetSend": {NsPerOp: 12, BytesPerOp: 12, AllocsPerOp: 1},
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %d benchmarks, want %d: %+v", len(got), len(want), got)
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s = %+v, want %+v", name, got[name], w)
		}
	}
}
