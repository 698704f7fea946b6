package disk

import (
	"testing"
	"time"
)

func buildTrace(n int) *Trace {
	tr := &Trace{}
	for i := 0; i < n; i++ {
		tr.Add(Entry{At: time.Duration(i) * 10 * time.Microsecond, LBN: int64(i) * 8, Sectors: 8})
	}
	return tr
}

// BenchmarkTraceWindow measures the paper-style narrow window query (a few
// hundred ms out of a long run) against a long blktrace log; the
// sort.Search bounds avoid scanning the whole log.
func BenchmarkTraceWindow(b *testing.B) {
	tr := buildTrace(1 << 20)
	from := 5200 * time.Millisecond
	to := 5400 * time.Millisecond
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(tr.Window(from, to)) == 0 {
			b.Fatal("window unexpectedly empty")
		}
	}
}

func TestTraceWindowEdges(t *testing.T) {
	tr := buildTrace(100)
	w := tr.Window(100*time.Microsecond, 150*time.Microsecond)
	if len(w) != 5 {
		t.Fatalf("window len = %d, want 5", len(w))
	}
	if w[0].At != 100*time.Microsecond {
		t.Fatalf("window start = %v", w[0].At)
	}
	if got := tr.Window(time.Hour, 2*time.Hour); got != nil {
		t.Fatalf("out-of-range window = %v, want nil", got)
	}
	if got := tr.Window(150*time.Microsecond, 100*time.Microsecond); got != nil {
		t.Fatalf("inverted window = %v, want nil", got)
	}
	if got := (&Trace{}).Window(0, time.Second); got != nil {
		t.Fatalf("empty trace window = %v, want nil", got)
	}
}
