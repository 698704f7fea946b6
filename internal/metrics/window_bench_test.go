package metrics

import (
	"testing"
	"time"
)

// buildSeries returns n points on a 1 ms grid.
func buildSeries(n int) *Series {
	s := &Series{Name: "b"}
	for i := 0; i < n; i++ {
		s.Add(time.Duration(i)*time.Millisecond, float64(i))
	}
	return s
}

// BenchmarkSeriesWindow measures a narrow window query against a long
// series — the sort.Search bounds make it O(log n + window) instead of the
// former full scan.
func BenchmarkSeriesWindow(b *testing.B) {
	s := buildSeries(1 << 20)
	from := 500 * time.Second
	to := from + 100*time.Millisecond
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s.Window(from, to) == 0 {
			b.Fatal("window unexpectedly empty")
		}
	}
}

func TestSeriesWindowEdges(t *testing.T) {
	s := buildSeries(10)
	if got := s.Window(3*time.Millisecond, 6*time.Millisecond); got != 4 {
		t.Fatalf("window mean = %g, want 4", got)
	}
	if got := s.Window(100*time.Millisecond, 200*time.Millisecond); got != 0 {
		t.Fatalf("out-of-range window = %g, want 0", got)
	}
	if got := s.Window(6*time.Millisecond, 3*time.Millisecond); got != 0 {
		t.Fatalf("inverted window = %g, want 0", got)
	}
	if got := (&Series{}).Window(0, time.Second); got != 0 {
		t.Fatalf("empty series window = %g, want 0", got)
	}
}
