package metrics

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"dualpar/internal/sim"
)

func TestSampleCollectsUntil(t *testing.T) {
	k := sim.NewKernel(1)
	n := 0
	s := Sample(k, "x", time.Second, 5*time.Second, func() float64 {
		n++
		return float64(n)
	})
	k.Run()
	if len(s.Points) != 5 {
		t.Fatalf("points = %d, want 5", len(s.Points))
	}
	if s.Points[0].T != time.Second || s.Points[4].T != 5*time.Second {
		t.Fatalf("sample times wrong: %+v", s.Points)
	}
	if k.Pending() != 0 {
		t.Fatalf("sampler left pending events")
	}
}

func TestSeriesStats(t *testing.T) {
	s := &Series{Name: "v"}
	for i := 1; i <= 4; i++ {
		s.Add(time.Duration(i)*time.Second, float64(i))
	}
	if s.Mean() != 2.5 {
		t.Fatalf("mean = %g", s.Mean())
	}
	if s.Max() != 4 {
		t.Fatalf("max = %g", s.Max())
	}
	if got := s.Window(2*time.Second, 4*time.Second); got != 2.5 {
		t.Fatalf("window = %g, want 2.5", got)
	}
	empty := &Series{}
	if empty.Mean() != 0 || empty.Max() != 0 {
		t.Fatalf("empty series stats nonzero")
	}
}

func TestWriteCSV(t *testing.T) {
	a := &Series{Name: "a"}
	a.Add(time.Second, 1)
	a.Add(2*time.Second, 2)
	b := &Series{Name: "b"}
	b.Add(time.Second, 10)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, a, b); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "time_s,a,b\n") {
		t.Fatalf("header wrong: %s", out)
	}
	if !strings.Contains(out, "1.000,1.000,10.000") {
		t.Fatalf("row missing: %s", out)
	}
	if !strings.Contains(out, "2.000,2.000,10.000") {
		t.Fatalf("carry-forward missing: %s", out)
	}
}

func TestASCIIChart(t *testing.T) {
	s := &Series{Name: "tp"}
	for i := 0; i < 100; i++ {
		s.Add(time.Duration(i)*time.Second, float64(i%10))
	}
	out := ASCIIChart(s, 40, 5)
	if !strings.Contains(out, "tp (max 9.0)") {
		t.Fatalf("chart header missing:\n%s", out)
	}
	if strings.Count(out, "\n") < 6 {
		t.Fatalf("chart too short:\n%s", out)
	}
	if ASCIIChart(&Series{}, 10, 3) != "(no data)\n" {
		t.Fatalf("empty chart wrong")
	}
}

func TestTable(t *testing.T) {
	tab := &Table{Header: []string{"name", "value"}}
	tab.AddRow("alpha", "1")
	tab.AddRow("b", "22")
	out := tab.String()
	if !strings.Contains(out, "alpha  1") || !strings.Contains(out, "-----") {
		t.Fatalf("table format:\n%s", out)
	}
	var buf bytes.Buffer
	if err := tab.WriteCSVTable(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.String() != "name,value\nalpha,1\nb,22\n" {
		t.Fatalf("csv = %q", buf.String())
	}
}

func TestNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, tc := range []struct{ p, want float64 }{
		{0, 1}, {20, 1}, {21, 2}, {50, 3}, {99, 5}, {100, 5}, {150, 5},
	} {
		if got := NearestRank(xs, tc.p); got != tc.want {
			t.Errorf("NearestRank(p=%g) = %g, want %g", tc.p, got, tc.want)
		}
	}
	if xs[0] != 5 {
		t.Fatalf("input reordered: %v", xs)
	}
	if got := NearestRank([]time.Duration(nil), 99); got != 0 {
		t.Fatalf("empty input = %v, want 0", got)
	}
}
