// Package metrics collects time series from a running simulation and
// renders them as CSV or quick ASCII charts — the machinery behind the
// reproduction of the paper's throughput and seek-distance plots.
package metrics

import (
	"cmp"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strings"
	"time"

	"dualpar/internal/sim"
)

// NearestRank returns the p-th percentile of xs by nearest rank: the
// smallest value with at least p% of xs at or below it (the minimum for
// p <= 0, the maximum for p >= 100, zero for an empty xs). xs is not
// modified.
func NearestRank[T cmp.Ordered](xs []T, p float64) T {
	if len(xs) == 0 {
		var zero T
		return zero
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

// Point is one sample.
type Point struct {
	T time.Duration
	V float64
}

// Series is a named sequence of samples.
type Series struct {
	Name   string
	Points []Point
}

// Add appends a sample.
func (s *Series) Add(t time.Duration, v float64) {
	s.Points = append(s.Points, Point{T: t, V: v})
}

// Mean returns the average sample value.
func (s *Series) Mean() float64 {
	if len(s.Points) == 0 {
		return 0
	}
	var sum float64
	for _, p := range s.Points {
		sum += p.V
	}
	return sum / float64(len(s.Points))
}

// Max returns the largest sample value.
func (s *Series) Max() float64 {
	m := math.Inf(-1)
	for _, p := range s.Points {
		if p.V > m {
			m = p.V
		}
	}
	if math.IsInf(m, -1) {
		return 0
	}
	return m
}

// Window returns the mean over samples with from <= T < to. Points must be
// in non-decreasing T order (true for every sampler in this package, which
// appends under a monotonic virtual clock); the bounds are located by
// binary search, so long series pay O(log n + window) instead of O(n).
func (s *Series) Window(from, to time.Duration) float64 {
	lo := sort.Search(len(s.Points), func(i int) bool { return s.Points[i].T >= from })
	hi := sort.Search(len(s.Points), func(i int) bool { return s.Points[i].T >= to })
	if lo >= hi {
		return 0
	}
	var sum float64
	for _, p := range s.Points[lo:hi] {
		sum += p.V
	}
	return sum / float64(hi-lo)
}

// Sample polls fn every interval until `until`, recording one point per
// poll. The chain self-terminates, keeping simulations drainable.
func Sample(k *sim.Kernel, name string, every, until time.Duration, fn func() float64) *Series {
	s := &Series{Name: name}
	var tick func()
	tick = func() {
		s.Add(k.Now(), fn())
		if k.Now()+every <= until {
			k.After(every, tick)
		}
	}
	k.After(every, tick)
	return s
}

// WriteCSV emits aligned series as "time_s,<name>,<name>..." rows. Series
// sampled on different grids are matched by nearest preceding sample.
func WriteCSV(w io.Writer, series ...*Series) error {
	if len(series) == 0 {
		return nil
	}
	// Union of timestamps.
	seen := map[time.Duration]bool{}
	var ts []time.Duration
	for _, s := range series {
		for _, p := range s.Points {
			if !seen[p.T] {
				seen[p.T] = true
				ts = append(ts, p.T)
			}
		}
	}
	sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
	names := make([]string, len(series))
	for i, s := range series {
		names[i] = s.Name
	}
	if _, err := fmt.Fprintf(w, "time_s,%s\n", strings.Join(names, ",")); err != nil {
		return err
	}
	idx := make([]int, len(series))
	for _, t := range ts {
		row := make([]string, 0, len(series)+1)
		row = append(row, fmt.Sprintf("%.3f", t.Seconds()))
		for i, s := range series {
			for idx[i]+1 < len(s.Points) && s.Points[idx[i]+1].T <= t {
				idx[i]++
			}
			if len(s.Points) == 0 || s.Points[idx[i]].T > t {
				row = append(row, "")
			} else {
				row = append(row, fmt.Sprintf("%.3f", s.Points[idx[i]].V))
			}
		}
		if _, err := fmt.Fprintln(w, strings.Join(row, ",")); err != nil {
			return err
		}
	}
	return nil
}

// ASCIIChart renders a series as a rough terminal chart of the given width
// and height.
func ASCIIChart(s *Series, width, height int) string {
	if len(s.Points) == 0 || width <= 0 || height <= 0 {
		return "(no data)\n"
	}
	maxV := s.Max()
	if maxV == 0 {
		maxV = 1
	}
	minT, maxT := s.Points[0].T, s.Points[len(s.Points)-1].T
	span := maxT - minT
	if span == 0 {
		span = 1
	}
	cols := make([]float64, width)
	counts := make([]int, width)
	for _, p := range s.Points {
		c := int(float64(p.T-minT) / float64(span) * float64(width-1))
		cols[c] += p.V
		counts[c]++
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s (max %.1f)\n", s.Name, maxV)
	for row := height; row >= 1; row-- {
		thresh := maxV * float64(row) / float64(height)
		b.WriteString("|")
		for c := 0; c < width; c++ {
			v := 0.0
			if counts[c] > 0 {
				v = cols[c] / float64(counts[c])
			}
			if counts[c] > 0 && v >= thresh {
				b.WriteString("#")
			} else {
				b.WriteString(" ")
			}
		}
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "+%s\n %-8s%*s\n", strings.Repeat("-", width),
		fmt.Sprintf("%.1fs", minT.Seconds()), width-8, fmt.Sprintf("%.1fs", maxT.Seconds()))
	return b.String()
}

// Table is a simple aligned-text table builder for experiment outputs.
type Table struct {
	Header []string
	Rows   [][]string
}

// AddRow appends a row of cells.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteString("\n")
	}
	line(t.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteString("\n")
	for _, r := range t.Rows {
		line(r)
	}
	return b.String()
}

// WriteCSVTable emits the table as RFC-4180 CSV (cells containing commas,
// quotes, or newlines are quoted).
func (t *Table) WriteCSVTable(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Header); err != nil {
		return err
	}
	for _, r := range t.Rows {
		if err := cw.Write(r); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
